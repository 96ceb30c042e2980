#include "ic3/lifter.hpp"

#include <algorithm>

#include "ic3/solver_manager.hpp"  // TimeoutError
#include "obs/phase.hpp"

namespace pilot::ic3 {

Lifter::Lifter(const ts::TransitionSystem& ts, const Config& cfg,
               Ic3Stats& stats)
    : ts_(ts), cfg_(cfg), stats_(stats) {
  if (cfg_.lift_mode == Config::LiftMode::kSat) {
    solver_ = std::make_unique<sat::Solver>();
    solver_->set_seed(cfg.seed);
    ts_.install(*solver_);
  } else {
    packed_ = std::make_unique<aig::PackedTernarySimulator>(ts_.aig());
  }
}

void Lifter::maybe_rebuild() {
  if (retired_tmp_ < cfg_.rebuild_tmp_threshold) return;
  solver_ = std::make_unique<sat::Solver>();
  solver_->set_seed(cfg_.seed);
  ts_.install(*solver_);
  retired_tmp_ = 0;
}

Cube Lifter::core_projection(const Cube& full) const {
  const std::vector<Lit>& core = solver_->core();
  std::vector<Lit> kept;
  for (const Lit l : full) {
    if (std::find(core.begin(), core.end(), l) != core.end()) {
      kept.push_back(l);
    }
  }
  if (kept.empty()) return full;  // defensive: keep something
  return Cube::from_sorted(std::move(kept));
}

// ----- ternary lifting -------------------------------------------------------

Cube Lifter::ternary_lift(const Cube& full, const std::vector<Lit>& inputs,
                          const TargetFn& target_definite) {
  constexpr std::size_t kLanes = aig::PackedTernarySimulator::kLanes;
  aig::PackedTernarySimulator& sim = *packed_;
  // Seed every lane with the full frame: latches from `full`, inputs from
  // `inputs`, everything else X.
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    sim.set_latch(i, aig::TV::kX);
  }
  for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
    sim.set_input(i, aig::TV::kX);
  }
  struct Cand {
    Lit lit;
    std::size_t idx;  // latch index
    aig::TV v;        // assigned value in `full`
    bool keep = false;
  };
  std::vector<Cand> cands;
  cands.reserve(full.size());
  for (const Lit l : full) {
    const int idx = ts_.latch_index_of(l.var());
    if (idx < 0) continue;
    const aig::TV v = l.sign() ? aig::TV::kZero : aig::TV::kOne;
    sim.set_latch(static_cast<std::size_t>(idx), v);
    cands.push_back(Cand{l, static_cast<std::size_t>(idx), v});
  }
  for (const Lit l : inputs) {
    for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
      if (ts_.input_var(i) == l.var()) {
        sim.set_input(i, l.sign() ? aig::TV::kZero : aig::TV::kOne);
        break;
      }
    }
  }
  sim.compute();
  if (!target_definite(0)) {  // partial model: nothing provable
    stats_.num_packed_sim_words += sim.take_words_evaluated();
    return full;
  }

  // Phase 1 — batched triage: lane j X-es out candidate j only, so one
  // sweep judges up to 32 candidates against the original assignment.  A
  // candidate whose target goes X here can never be dropped later —
  // ternary simulation is monotone in X, and the live frame only gains
  // X's — so it is kept permanently without ever re-testing it.
  std::vector<std::size_t> plausible;
  for (std::size_t base = 0; base < cands.size(); base += kLanes) {
    const std::size_t n = std::min(cands.size() - base, kLanes);
    for (std::size_t j = 0; j < n; ++j) {
      sim.set_latch(cands[base + j].idx, j, aig::TV::kX);
    }
    sim.compute();
    for (std::size_t j = 0; j < n; ++j) {
      if (target_definite(j)) {
        plausible.push_back(base + j);
      } else {
        cands[base + j].keep = true;
      }
      sim.set_latch(cands[base + j].idx, j, cands[base + j].v);
    }
  }
  // Re-establish the full assignment on every lane: the triage sweeps left
  // the AND words computed for the last batch's X-outs.
  sim.compute();

  // Phase 2 — sequential confirmation of the plausible candidates, in cube
  // order, against the live frame (accepted X's accumulate): X out one
  // latch at a time, re-evaluating only its fanout cone.  The result equals
  // the one-full-sweep-per-latch loop over aig::TernarySimulator (the
  // reference in test_lifter).
  for (const std::size_t c : plausible) {
    sim.trial_set_latch(cands[c].idx, aig::TV::kX);
    if (target_definite(0)) {
      sim.trial_commit();  // X accepted: candidate dropped
    } else {
      sim.trial_rollback();
      cands[c].keep = true;
    }
  }
  stats_.num_packed_sim_words += sim.take_words_evaluated();
  std::vector<Lit> kept;
  for (const Cand& c : cands) {
    if (c.keep) kept.push_back(c.lit);
  }
  if (kept.empty()) return full;  // defensive
  return Cube::from_sorted(std::move(kept));
}

Cube Lifter::ternary_lift_predecessor(const Cube& pred_full,
                                      const std::vector<Lit>& inputs,
                                      const Cube& successor) {
  auto target_definite = [&](std::size_t lane) {
    for (const aig::AigLit c : ts_.aig().constraints()) {
      if (packed_->value(c, lane) != aig::TV::kOne) return false;
    }
    for (const Lit l : successor) {
      const int idx = ts_.latch_index_of(l.var());
      const std::uint32_t latch_node =
          ts_.aig().latches()[static_cast<std::size_t>(idx)];
      const aig::TV v = packed_->value(ts_.aig().next(latch_node), lane);
      const aig::TV want = l.sign() ? aig::TV::kZero : aig::TV::kOne;
      if (v != want) return false;
    }
    return true;
  };
  return ternary_lift(pred_full, inputs, target_definite);
}

Cube Lifter::ternary_lift_bad(const Cube& state_full,
                              const std::vector<Lit>& inputs) {
  auto target_definite = [&](std::size_t lane) {
    // No constraint checks needed: the bad cone conjoins the invariant
    // constraints at TransitionSystem construction, so bad == 1 (definite)
    // already forces every constraint definite-true.
    const Lit bad = ts_.bad();
    const aig::TV v = packed_->value(
        aig::AigLit::make(static_cast<std::uint32_t>(bad.var()), bad.sign()),
        lane);
    return v == aig::TV::kOne;
  };
  return ternary_lift(state_full, inputs, target_definite);
}

// ----- public entry points ----------------------------------------------------

Cube Lifter::lift_predecessor(const Cube& pred_full,
                              const std::vector<Lit>& inputs,
                              const Cube& successor,
                              const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kLift);
  if (cfg_.lift_mode == Config::LiftMode::kTernary) {
    return ternary_lift_predecessor(pred_full, inputs, successor);
  }
  maybe_rebuild();
  std::vector<Lit> clause;
  clause.reserve(successor.size());
  for (const Lit l : successor) clause.push_back(~ts_.prime(l));
  const Lit tmp = solver_->add_temporary(clause);

  std::vector<Lit> assumptions;
  assumptions.reserve(pred_full.size() + inputs.size() + 1);
  // Assumption order matters for core quality: inputs and the activation
  // first so state literals land late in the final conflict analysis.
  assumptions.push_back(tmp);
  assumptions.insert(assumptions.end(), inputs.begin(), inputs.end());
  for (const Lit l : pred_full) assumptions.push_back(l);

  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  solver_->drop_temporary();
  ++retired_tmp_;
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  if (res == sat::SolveResult::kSat) return pred_full;  // defensive
  return core_projection(pred_full);
}

Cube Lifter::lift_bad(const Cube& state_full, const std::vector<Lit>& inputs,
                      const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kLift);
  if (cfg_.lift_mode == Config::LiftMode::kTernary) {
    return ternary_lift_bad(state_full, inputs);
  }
  maybe_rebuild();
  std::vector<Lit> assumptions;
  assumptions.reserve(state_full.size() + inputs.size() + 1);
  assumptions.push_back(~ts_.bad());
  assumptions.insert(assumptions.end(), inputs.begin(), inputs.end());
  for (const Lit l : state_full) assumptions.push_back(l);

  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  if (res == sat::SolveResult::kSat) return state_full;  // defensive
  return core_projection(state_full);
}

}  // namespace pilot::ic3
