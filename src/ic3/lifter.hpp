/// \file lifter.hpp
/// Lifting of concrete states to cubes, by SAT cores or ternary simulation.
///
/// SAT mode: given a full predecessor assignment (s, y) whose unique
/// successor lies in cube t, the query  s ∧ y ∧ T ∧ ¬t'  is unsatisfiable;
/// the final-conflict core over the s-literals is a partial cube every one
/// of whose states still transitions into t under input y.
///
/// Ternary mode (the original PDR approach): X-out one latch of s at a
/// time and keep the X if three-valued simulation still produces definite,
/// matching values on the successor cube (and keeps the constraints and —
/// for bad lifting — the bad signal definite).  No solver involved.
///
/// Ternary lifting runs on PackedTernarySimulator: one batched sweep
/// triages 32 X-out candidates at once against the original assignment (a
/// candidate whose target goes X there can never be dropped later, because
/// ternary simulation is monotone in X), then the survivors are confirmed
/// one at a time with event-driven re-evaluation of only the affected
/// fanout cone.  The cubes equal those of one full TernarySimulator sweep
/// per latch, the reference test_lifter checks against.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "aig/simulation.hpp"
#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/stats.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

class Lifter {
 public:
  Lifter(const ts::TransitionSystem& ts, const Config& cfg, Ic3Stats& stats);

  /// Shrinks a full predecessor cube: every state of the result reaches a
  /// state in `successor` in one step under `inputs`.
  Cube lift_predecessor(const Cube& pred_full, const std::vector<Lit>& inputs,
                        const Cube& successor, const Deadline& deadline);

  /// Shrinks a full state in the bad cone: every state of the result can
  /// produce bad with `inputs`.
  Cube lift_bad(const Cube& state_full, const std::vector<Lit>& inputs,
                const Deadline& deadline);

 private:
  /// Judges one simulated frame: true when the lifting target (successor
  /// cube / bad signal, plus the invariant constraints) is still definite.
  /// The lane selects a pattern of the packed simulator.
  using TargetFn = std::function<bool(std::size_t lane)>;

  void maybe_rebuild();
  Cube core_projection(const Cube& full) const;
  /// Shared ternary-lifting entry.
  Cube ternary_lift(const Cube& full, const std::vector<Lit>& inputs,
                    const TargetFn& target_definite);
  Cube ternary_lift_predecessor(const Cube& pred_full,
                                const std::vector<Lit>& inputs,
                                const Cube& successor);
  Cube ternary_lift_bad(const Cube& state_full,
                        const std::vector<Lit>& inputs);

  const ts::TransitionSystem& ts_;
  const Config& cfg_;
  Ic3Stats& stats_;
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<aig::PackedTernarySimulator> packed_;
  std::size_t retired_tmp_ = 0;
};

}  // namespace pilot::ic3
