/// \file bmc.hpp
/// Bounded model checking over the incremental unroller.
///
/// BMC is complete for finding counterexamples up to the bound and serves
/// two roles here: an independent oracle cross-checking IC3's UNSAFE
/// verdicts in the tests, and a comparator engine in the harness.
#pragma once

#include <optional>
#include <vector>

#include "ic3/witness.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "ts/unroller.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pilot::bmc {

using ic3::Trace;

enum class BmcVerdict { kUnsafe, kBoundReached, kUnknown };

struct BmcResult {
  BmcVerdict verdict = BmcVerdict::kUnknown;
  int counterexample_length = -1;  // steps to bad (0 = bad in init)
  double seconds = 0.0;
  std::optional<Trace> trace;
  /// SAT-layer counters of the unrolling solver (campaigns record them).
  sat::SolverStats sat_stats;
  /// Per-phase wall time (unroll / solve).
  obs::PhaseProfile phases;
};

struct BmcOptions {
  int max_bound = 1000;
  std::uint64_t seed = 0;
  /// Live-progress channel (non-owning; may be null). The bound search
  /// publishes the current k and SAT counters once per bound.
  obs::ProgressSink* progress = nullptr;
};

/// Checks bad reachability for bounds 0..max_bound incrementally.  A
/// non-null `cancel` aborts the search cooperatively (verdict stays
/// kUnknown); the flag is polled both per bound and inside the SAT calls.
BmcResult run_bmc(const ts::TransitionSystem& ts, const BmcOptions& options,
                  pilot::Deadline deadline = {},
                  const pilot::CancelToken* cancel = nullptr);

/// Assembles the concrete 0..k counterexample trace from the satisfying
/// model of an unrolled solver.  Shared by BMC and the k-induction base
/// case so every UNSAFE verdict carries a replayable witness.
Trace extract_unrolled_trace(const sat::Solver& solver,
                             const ts::Unroller& unroller,
                             const ts::TransitionSystem& ts, int k);

}  // namespace pilot::bmc
