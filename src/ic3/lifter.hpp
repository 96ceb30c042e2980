/// \file lifter.hpp
/// Lifting of concrete states to cubes by ternary simulation.
///
/// The original PDR approach (Een–Mishchenko–Brayton, FMCAD'11): X-out one
/// latch of s at a time and keep the X if three-valued simulation still
/// produces definite, matching values on the successor cube (and keeps the
/// constraints and — for bad lifting — the bad signal definite).  No
/// solver is involved, so a lift never solves and never times out.
///
/// Lifting runs on PackedTernarySimulator: one batched sweep triages 32
/// X-out candidates at once against the original assignment (a candidate
/// whose target goes X there can never be dropped later, because ternary
/// simulation is monotone in X), then the survivors are confirmed one at a
/// time with event-driven re-evaluation of only the affected fanout cone.
/// The cubes equal those of one full TernarySimulator sweep per latch, the
/// reference test_lifter checks against.
#pragma once

#include <functional>
#include <vector>

#include "aig/simulation.hpp"
#include "ic3/cube.hpp"
#include "ic3/stats.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {

class Lifter {
 public:
  Lifter(const ts::TransitionSystem& ts, Ic3Stats& stats);

  /// Shrinks a full predecessor cube: every state of the result reaches a
  /// state in `successor` in one step under `inputs`.
  Cube lift_predecessor(const Cube& pred_full, const std::vector<Lit>& inputs,
                        const Cube& successor);

  /// Shrinks a full state in the bad cone: every state of the result can
  /// produce bad with `inputs`.
  Cube lift_bad(const Cube& state_full, const std::vector<Lit>& inputs);

 private:
  /// Judges one simulated frame: true when the lifting target (successor
  /// cube / bad signal, plus the invariant constraints) is still definite.
  /// The lane selects a pattern of the packed simulator.
  using TargetFn = std::function<bool(std::size_t lane)>;

  /// Shared lifting loop of both entry points.
  Cube lift(const Cube& full, const std::vector<Lit>& inputs,
            const TargetFn& target_definite);

  const ts::TransitionSystem& ts_;
  Ic3Stats& stats_;
  aig::PackedTernarySimulator sim_;
};

}  // namespace pilot::ic3
