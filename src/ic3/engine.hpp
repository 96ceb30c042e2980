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
/// Propagation is incremental.  A failed push of lemma c at level i leaves
/// a counterexample to propagation (CTP): a predecessor state s in R_i whose
/// successor t lies in c.  The engine keeps (s, t) with the frames' install
/// stamp.  R_i only gets stronger and T is fixed, so the next pass skips the
/// solve for (c, i), and hands t on as the failure's CTP, as long as s
/// falsifies a literal of every lemma that R_i gained since the stamp
/// (Frames' install log).  Only the propagation pass caches; the pushes
/// after a new lemma is blocked always solve.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
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

  /// The CTP of a failed push: the full predecessor and successor states of
  /// the SAT model, and the frames' install_count() when it was last known
  /// to be a model of R_level ∧ T ∧ c′.
  struct PushCtp {
    Cube state;
    Cube successor;
    std::uint64_t stamp = 0;
  };
  using PushCtpMap =
      std::unordered_map<CubeLevelKey, PushCtp, CubeLevelKeyHash>;

  /// Blocks the root obligation; returns false when a counterexample chain
  /// reached the initial states (cex_leaf_ set).
  bool block(int root_index, const Deadline& deadline);

  void add_lemma(const Cube& cube, std::size_t level);
  bool propagate(const Deadline& deadline);
  /// True iff `ctp.state` still lies in R_level: it falsifies a literal of
  /// every lemma that R_level gained since `ctp.stamp`.
  [[nodiscard]] bool ctp_still_valid(const PushCtp& ctp,
                                     std::size_t level) const;
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

  /// CTPs of the failed pushes of the last propagation pass, by
  /// (lemma, level); each pass keeps only the entries it visits.
  PushCtpMap push_ctps_;

  std::vector<Obligation> pool_;
  std::set<QueueKey> queue_;
  int cex_leaf_ = -1;
  const CancelToken* cancel_ = nullptr;  // valid for the duration of check()
  /// True while installing an imported lemma, so add_lemma() does not echo
  /// it back onto the bus.
  bool importing_ = false;
};

}  // namespace pilot::ic3
