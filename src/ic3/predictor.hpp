/// \file predictor.hpp
/// Lemma prediction from counterexamples to propagation — the contribution
/// of "Predicting Lemmas in Generalization of IC3" (DAC'24), Algorithm 2.
///
/// When pushing the lemma ¬p from F_{i} to F_{i+1} fails, the SAT model
/// exhibits a counterexample to propagation (CTP): a successor state t with
/// t ⊨ p.  Every failed push is recorded in the frames' CTP table keyed by
/// (lemma, level) (frames.hpp), which stands for the paper's failure_push
/// table; the predictor reads t from it.
///
/// Later, when a cube b must be generalized at level i, each parent lemma
/// p ⊆ b of frame i-1 with a recorded CTP t yields a *predicted* lemma:
///   * ds = diff(b, t)  (Definition 3.1: literals of b falsified by t)
///   * ds = ∅  → b and t intersect (Theorem 3.2); try pushing p itself.
///   * ds ≠ ∅ → candidates c₃ = p ∪ {d}, d ∈ ds (Equation 6): by
///     Theorems 3.2–3.4, c₃ excludes t, contains b, and implies p.
/// A single relative-induction query validates a candidate; on success the
/// whole literal-dropping loop of generalization is skipped.
#pragma once

#include <optional>

#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/solver_manager.hpp"
#include "ic3/stats.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

class Predictor {
 public:
  Predictor(SolverManager& solvers, Frames& frames, Ic3Stats& stats);

  /// Attempts to predict a lemma blocking cube `b` at `level` without
  /// dropping variables.  Returns the validated cube on success.
  /// Updates the paper's N_p / N_sp / N_fp counters.
  std::optional<Cube> predict(const Cube& b, std::size_t level,
                              const Deadline& deadline);

 private:
  /// Lines 15-27 for parent `p` of `b` with diff set `ds` = diff(b, t).
  std::optional<Cube> try_parent(const Cube& b, const Cube& p,
                                 const Cube& ds, std::size_t level,
                                 const Deadline& deadline);

  SolverManager& solvers_;
  Frames& frames_;
  Ic3Stats& stats_;
};

}  // namespace pilot::ic3
