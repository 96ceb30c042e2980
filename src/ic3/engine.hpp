/// \file engine.hpp
/// The IC3 model checking engine (Algorithm 1 of the paper, queue-based),
/// with the blue-line extensions of Algorithm 2 enabled by a "predict"
/// generalization strategy (Config::gen_spec).
///
/// Usage:
///   auto ts = ts::TransitionSystem::from_aig(aig);
///   ic3::Config cfg; cfg.gen_spec = "predict:ctg";
///   ic3::Engine engine(ts, cfg);
///   ic3::Result r = engine.check(Deadline::in_seconds(10));
///
/// The result carries a verifiable witness (trace or inductive invariant)
/// and the success-rate statistics of the paper's §4.3.
///
/// Propagation is incremental.  Every failed push, in the propagation pass
/// or after a new lemma is blocked, records its counterexample to
/// propagation (CTP) in the frames' one CTP table (frames.hpp); the next
/// pass skips the solve of each push whose CTP is still valid.
#pragma once

#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/generalizer.hpp"
#include "ic3/lemma_bus.hpp"
#include "ic3/lifter.hpp"
#include "ic3/solver_manager.hpp"
#include "ic3/stats.hpp"
#include "ic3/witness.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

enum class Verdict { kSafe, kUnsafe, kUnknown };

[[nodiscard]] inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kSafe: return "SAFE";
    case Verdict::kUnsafe: return "UNSAFE";
    default: return "UNKNOWN";
  }
}

struct Result {
  Verdict verdict = Verdict::kUnknown;
  std::size_t frames = 0;
  double seconds = 0.0;
  Ic3Stats stats;
  std::optional<Trace> trace;                  // when UNSAFE
  std::optional<InductiveInvariant> invariant; // when SAFE
};

class Engine {
 public:
  explicit Engine(const ts::TransitionSystem& ts, Config cfg = {});

  /// Runs the check until a verdict, until the deadline expires, or until
  /// `cancel` (when non-null) requests a stop.  Timeout and cancellation
  /// both yield Verdict::kUnknown with the statistics gathered so far and
  /// an empty obligation queue, so the caller sees a clean partial run.
  Result check(Deadline deadline = {}, const CancelToken* cancel = nullptr);

  /// Obligations still queued (0 after every check(), including aborted
  /// ones — exposed so tests can assert cancellation leaves no dangling
  /// proof state).
  [[nodiscard]] std::size_t pending_obligations() const {
    return queue_.size();
  }

 private:
  struct Obligation {
    Cube cube;
    std::size_t level = 0;
    std::size_t depth = 0;
    int successor = -1;       // pool index of the obligation this one feeds
    std::vector<Lit> inputs;  // inputs driving cube into successor (or bad)
  };
  using QueueKey = std::tuple<std::size_t, std::size_t, int>;

  /// Blocks the root obligation; returns false when a counterexample chain
  /// reached the initial states (cex_leaf_ set).
  bool block(int root_index, const Deadline& deadline);

  void add_lemma(const Cube& cube, std::size_t level);
  bool propagate(const Deadline& deadline);
  /// Polls Config::lemma_bus (when set) and installs every peer lemma that
  /// survives one relative-induction validation query; called at each
  /// propagation boundary.
  void import_shared_lemmas(const Deadline& deadline);
  /// Refreshes the live SAT counters (absorb_sat is idempotent) and, when
  /// Config::progress is set, publishes a snapshot to the heartbeat sink.
  void publish_progress();
  Trace build_trace(int leaf_index) const;
  InductiveInvariant collect_invariant(std::size_t fixpoint_level) const;

  const ts::TransitionSystem& ts_;
  Config cfg_;
  Ic3Stats stats_;
  Frames frames_;
  SolverManager solvers_;
  Lifter lifter_;
  Generalizer generalizer_;

  std::vector<Obligation> pool_;
  std::set<QueueKey> queue_;
  int cex_leaf_ = -1;
  const CancelToken* cancel_ = nullptr;  // valid for the duration of check()
  /// True while installing an imported lemma, so add_lemma() does not echo
  /// it back onto the bus.
  bool importing_ = false;
};

}  // namespace pilot::ic3
