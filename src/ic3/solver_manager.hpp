/// \file solver_manager.hpp
/// SAT query layer of the IC3 engine.
///
/// One incremental solver holds the transition relation T, the initial cube
/// (guarded by act_0), and every lemma clause guarded by the activation
/// literal of its top level.  A query against the logical frame
/// R_i = ⋂_{j≥i} delta(j) simply assumes act_j for all j ≥ i; pushing a
/// lemma re-adds its clause under the higher activation literal.
///
/// The assumption vector is built in a canonical order tuned for the
/// solver's assumption-prefix trail reuse: activation literals first, in
/// *descending* level order (act_top … act_level), then the per-query
/// literals (temporary activation, primed cube).  Queries at nearby levels
/// — the generalization hot loop — then share the longest possible prefix
/// and skip its re-propagation entirely.
///
/// The ¬c part of a relative-induction query is the solver's query-scoped
/// temporary clause (sat::Solver::add_temporary): guarded by a fresh
/// activation variable that is never decided on, assumed for this one
/// solve, and detached again right after it, on every outcome.  What a
/// query leaves behind is its retired activation variable and the learnt
/// clauses that mention it; once enough have accumulated, rebuild()
/// replaces the solver with a fresh one that replays the frames.
#pragma once

#include <memory>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/stats.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

using ts::TransitionSystem;

/// Thrown when a SAT call exhausts the model-checking deadline; caught by
/// the engine, which reports Verdict::kUnknown.
struct TimeoutError {};

class SolverManager {
 public:
  SolverManager(const TransitionSystem& ts, const Config& cfg,
                Ic3Stats& stats);

  /// Makes activation literals for levels 0..k available.
  void ensure_level(std::size_t k);

  /// Adds the lemma clause ¬cube guarded by act(level).
  void add_lemma_clause(const Cube& cube, std::size_t level);

  /// SAT(R_level ∧ bad)?  On true, the model is available for extraction.
  bool solve_bad(std::size_t level, const Deadline& deadline);

  /// Relative induction: is the clause ¬c inductive relative to R_level,
  /// i.e. UNSAT(R_level ∧ ¬c ∧ T ∧ c′)?
  ///
  /// `cube_clause_in_frame` skips the temporary ¬c clause for push queries,
  /// where the lemma is already part of R_level.
  ///
  /// Returns true iff inductive; then `core_out` (if non-null) receives the
  /// unsat-core-shrunk and initiation-repaired cube (⊆ c).  On false, the
  /// CTI model is available via model_state()/model_inputs().
  bool relative_inductive(const Cube& c, std::size_t level,
                          bool cube_clause_in_frame, Cube* core_out,
                          const Deadline& deadline);

  /// Full latch cube from the last SAT model (primed = successor state X').
  /// Either way the cube is expressed over *current-step* state variables.
  [[nodiscard]] Cube model_state(bool primed) const;

  /// Input literals from the last SAT model.
  [[nodiscard]] std::vector<Lit> model_inputs() const;

  /// Replaces the solver with a fresh one, built as the constructor builds
  /// it, and replays the frames: delta(j) under act(j) for every j ≥ 1, in
  /// Frames order.  Nothing else of the retired solver survives but its
  /// counters (sat_stats()).
  void rebuild(const Frames& frames);

  /// Rebuilds once Config::rebuild_tmp_threshold temporary activation
  /// variables have been retired.
  void maybe_rebuild(const Frames& frames);

  /// Aggregate SAT counters across the current solver and every solver
  /// retired by rebuild() — rebuilds do not reset the statistics.
  [[nodiscard]] sat::SolverStats sat_stats() const {
    sat::SolverStats out = retired_sat_stats_;
    out += solver_->stats();
    return out;
  }

 private:
  [[nodiscard]] Lit act(std::size_t level) const {
    return Lit::make(act_vars_[level]);
  }
  /// Assumptions activating R_level: act_j for all j ≥ level, in
  /// descending level order (see the file comment on prefix reuse).
  [[nodiscard]] std::vector<Lit> frame_assumptions(std::size_t level) const;
  /// Creates a fresh solver holding T and the act_0-guarded initial cube;
  /// the one construction path of the constructor and rebuild().
  void install_base();
  Cube shrink_with_core(const Cube& c) const;
  /// Initiation repair for the core shrinker: if `shrunk` touches I,
  /// restore one literal of `full` that contradicts the initial cube.
  Cube repair_initiation(Cube shrunk, const Cube& full) const;

  const TransitionSystem& ts_;
  const Config& cfg_;
  Ic3Stats& stats_;
  std::unique_ptr<sat::Solver> solver_;
  std::vector<Var> act_vars_;
  std::size_t retired_tmp_ = 0;
  sat::SolverStats retired_sat_stats_;
  // Scratch for shrink_with_core: flags indexed by Lit::index(), marked for
  // the core's literals and cleared again on exit (avoids an O(|c|·|core|)
  // scan per call).
  mutable std::vector<char> core_mark_;
};

}  // namespace pilot::ic3
