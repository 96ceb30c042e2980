/// \file kinduction.hpp
/// K-induction: proves safety when  (no cex up to k)  and
/// (any k+1 consecutive non-bad states cannot step into bad).
///
/// Uses two incremental unrollers: a BMC-style base case and an unconstrained
/// step case with simple-path constraints (pairwise state disequality) to
/// guarantee completeness on finite systems.
#pragma once

#include <cstdint>
#include <optional>

#include "ic3/witness.hpp"
#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pilot::bmc {

enum class KindVerdict { kSafe, kUnsafe, kBoundReached, kUnknown };

struct KindResult {
  KindVerdict verdict = KindVerdict::kUnknown;
  int k = -1;  // proof depth or counterexample length
  double seconds = 0.0;
  std::optional<ic3::Trace> trace;  // when UNSAFE (base-case model)
  /// Combined base + step solver counters (campaigns record them).
  sat::SolverStats sat_stats;
  /// Per-phase wall time (unroll / solve).
  obs::PhaseProfile phases;
};

struct KindOptions {
  int max_k = 200;
  bool simple_path = true;
  std::uint64_t seed = 0;
  /// Live-progress channel (non-owning; may be null). Publishes the current
  /// k and combined SAT counters once per bound.
  obs::ProgressSink* progress = nullptr;
};

/// A non-null `cancel` aborts the search cooperatively (verdict stays
/// kUnknown); the flag is polled per bound and inside the SAT calls.
KindResult run_kinduction(const ts::TransitionSystem& ts,
                          const KindOptions& options,
                          pilot::Deadline deadline = {},
                          const pilot::CancelToken* cancel = nullptr);

}  // namespace pilot::bmc
