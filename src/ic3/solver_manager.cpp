#include "ic3/solver_manager.hpp"

#include "obs/phase.hpp"
#include "util/log.hpp"

namespace pilot::ic3 {

SolverManager::SolverManager(const TransitionSystem& ts, const Config& cfg,
                             Ic3Stats& stats)
    : ts_(ts), cfg_(cfg), stats_(stats) {
  install_base();
}

void SolverManager::install_base() {
  solver_ = std::make_unique<sat::Solver>();
  solver_->set_seed(cfg_.seed);
  solver_->set_trail_reuse(cfg_.sat_trail_reuse);
  ts_.install(*solver_);
  act_vars_.clear();
  retired_tmp_ = 0;
  // Level 0: the initial cube, guarded by act_0.
  ensure_level(0);
  for (const Lit l : ts_.init_literals()) {
    solver_->add_binary(~act(0), l);
  }
}

void SolverManager::ensure_level(std::size_t k) {
  while (act_vars_.size() <= k) {
    act_vars_.push_back(solver_->new_var());
  }
}

void SolverManager::add_lemma_clause(const Cube& cube, std::size_t level) {
  ensure_level(level);
  std::vector<Lit> clause = cube.negated_lits();
  clause.push_back(~act(level));
  solver_->add_clause(clause);
}

std::vector<Lit> SolverManager::frame_assumptions(std::size_t level) const {
  // Descending activation order: every query assumes the same act_top,
  // act_top-1, … head, so consecutive queries — even at different levels —
  // share the longest possible prefix for the solver's trail reuse.
  std::vector<Lit> assumptions;
  assumptions.reserve(act_vars_.size() - level);
  for (std::size_t j = act_vars_.size(); j-- > level;) {
    assumptions.push_back(act(j));
  }
  return assumptions;
}

bool SolverManager::solve_bad(std::size_t level, const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kSatSolve);
  ensure_level(level);
  std::vector<Lit> assumptions = frame_assumptions(level);
  assumptions.push_back(ts_.bad());
  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  return res == sat::SolveResult::kSat;
}

bool SolverManager::relative_inductive(const Cube& c, std::size_t level,
                                       bool cube_clause_in_frame,
                                       Cube* core_out,
                                       const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kSatSolve);
  ensure_level(level);
  std::vector<Lit> assumptions = frame_assumptions(level);

  if (!cube_clause_in_frame) {
    // The temporary ¬c clause lives for this one solve: its activation
    // literal is assumed here only, and drop_temporary() detaches it on
    // every outcome, before a timeout is thrown.
    assumptions.push_back(solver_->add_temporary(c.negated_lits()));
  }
  for (const Lit l : c) assumptions.push_back(ts_.prime(l));

  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  if (!cube_clause_in_frame) {
    solver_->drop_temporary();
    ++retired_tmp_;
  }
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  if (res == sat::SolveResult::kSat) return false;
  if (core_out != nullptr) *core_out = shrink_with_core(c);
  return true;
}

Cube SolverManager::repair_initiation(Cube shrunk, const Cube& full) const {
  if (!ts_.cube_intersects_init(shrunk.lits())) return shrunk;
  // Add back one literal of `full` that contradicts the initial cube.
  for (const Lit l : full) {
    if (shrunk.contains(l)) continue;
    const sat::LBool init = ts_.init_value(l.var());
    if (init.is_undef()) continue;
    const bool satisfied_in_init = init.is_true() != l.sign();
    if (!satisfied_in_init) {
      return shrunk.with_lit(l);
    }
  }
  return shrunk;
}

Cube SolverManager::shrink_with_core(const Cube& c) const {
  // Keep only the literals of c whose primed counterpart appears in the
  // final-conflict core, then repair initiation: the shrunk cube must stay
  // disjoint from I, which c itself is.  The core literals are marked in a
  // flag vector so the membership test is O(1) per literal instead of a
  // scan over the core.
  const std::vector<Lit>& core = solver_->core();
  for (const Lit l : core) {
    const auto idx = static_cast<std::size_t>(l.index());
    if (idx >= core_mark_.size()) core_mark_.resize(idx + 1, 0);
    core_mark_[idx] = 1;
  }
  std::vector<Lit> kept;
  for (const Lit l : c) {
    const auto idx = static_cast<std::size_t>(ts_.prime(l).index());
    if (idx < core_mark_.size() && core_mark_[idx] != 0) {
      kept.push_back(l);
    }
  }
  for (const Lit l : core) {
    core_mark_[static_cast<std::size_t>(l.index())] = 0;
  }
  Cube shrunk = Cube::from_sorted(std::move(kept));
  if (shrunk.empty()) return c;  // degenerate core; keep the original
  return repair_initiation(std::move(shrunk), c);
}

Cube SolverManager::model_state(bool primed) const {
  std::vector<Lit> lits;
  lits.reserve(ts_.num_latches());
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    const Var model_var =
        primed ? ts_.next_state_var(i) : ts_.state_var(i);
    const sat::LBool v = solver_->model_value(Lit::make(model_var));
    if (v.is_undef()) continue;
    lits.push_back(Lit::make(ts_.state_var(i), v.is_false()));
  }
  return Cube::from_lits(std::move(lits));
}

std::vector<Lit> SolverManager::model_inputs() const {
  std::vector<Lit> lits;
  lits.reserve(ts_.num_inputs());
  for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
    const Var v = ts_.input_var(i);
    const sat::LBool val = solver_->model_value(Lit::make(v));
    if (val.is_undef()) continue;
    lits.push_back(Lit::make(v, val.is_false()));
  }
  return lits;
}

void SolverManager::rebuild(const Frames& frames) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kRebuild);
  const std::size_t top = act_vars_.size() - 1;  // install_base made act_0
  retired_sat_stats_ += solver_->stats();
  install_base();
  ensure_level(top);
  for (std::size_t j = 1; j <= frames.top_level(); ++j) {
    for (const Cube& c : frames.delta(j)) add_lemma_clause(c, j);
  }
  ++stats_.num_solver_rebuilds;
  PILOT_DEBUG("solver rebuilt; lemmas=" << frames.total_lemmas());
}

void SolverManager::maybe_rebuild(const Frames& frames) {
  if (retired_tmp_ >= cfg_.rebuild_tmp_threshold) rebuild(frames);
}

}  // namespace pilot::ic3
