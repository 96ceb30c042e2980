#include "ic3/lifter.hpp"

#include <algorithm>

#include "obs/phase.hpp"

namespace pilot::ic3 {

Lifter::Lifter(const ts::TransitionSystem& ts, Ic3Stats& stats)
    : ts_(ts), stats_(stats), sim_(ts.aig()) {}

Cube Lifter::lift(const Cube& full, const std::vector<Lit>& inputs,
                  const TargetFn& target_definite) {
  constexpr std::size_t kLanes = aig::PackedTernarySimulator::kLanes;
  // Seed every lane with the full frame: latches from `full`, inputs from
  // `inputs`, everything else X.
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    sim_.set_latch(i, aig::TV::kX);
  }
  for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
    sim_.set_input(i, aig::TV::kX);
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
    sim_.set_latch(static_cast<std::size_t>(idx), v);
    cands.push_back(Cand{l, static_cast<std::size_t>(idx), v});
  }
  for (const Lit l : inputs) {
    for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
      if (ts_.input_var(i) == l.var()) {
        sim_.set_input(i, l.sign() ? aig::TV::kZero : aig::TV::kOne);
        break;
      }
    }
  }
  sim_.compute();
  if (!target_definite(0)) {  // partial model: nothing provable
    stats_.num_packed_sim_words += sim_.take_words_evaluated();
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
      sim_.set_latch(cands[base + j].idx, j, aig::TV::kX);
    }
    sim_.compute();
    for (std::size_t j = 0; j < n; ++j) {
      if (target_definite(j)) {
        plausible.push_back(base + j);
      } else {
        cands[base + j].keep = true;
      }
      sim_.set_latch(cands[base + j].idx, j, cands[base + j].v);
    }
  }
  // Re-establish the full assignment on every lane: the triage sweeps left
  // the AND words computed for the last batch's X-outs.
  sim_.compute();

  // Phase 2 — sequential confirmation of the plausible candidates, in cube
  // order, against the live frame (accepted X's accumulate): X out one
  // latch at a time, re-evaluating only its fanout cone.  The result equals
  // the one-full-sweep-per-latch loop over aig::TernarySimulator (the
  // reference in test_lifter).
  for (const std::size_t c : plausible) {
    sim_.trial_set_latch(cands[c].idx, aig::TV::kX);
    if (target_definite(0)) {
      sim_.trial_commit();  // X accepted: candidate dropped
    } else {
      sim_.trial_rollback();
      cands[c].keep = true;
    }
  }
  stats_.num_packed_sim_words += sim_.take_words_evaluated();
  std::vector<Lit> kept;
  for (const Cand& c : cands) {
    if (c.keep) kept.push_back(c.lit);
  }
  if (kept.empty()) return full;  // defensive
  return Cube::from_sorted(std::move(kept));
}

Cube Lifter::lift_predecessor(const Cube& pred_full,
                              const std::vector<Lit>& inputs,
                              const Cube& successor) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kLift);
  auto target_definite = [&](std::size_t lane) {
    for (const aig::AigLit c : ts_.aig().constraints()) {
      if (sim_.value(c, lane) != aig::TV::kOne) return false;
    }
    for (const Lit l : successor) {
      const int idx = ts_.latch_index_of(l.var());
      const std::uint32_t latch_node =
          ts_.aig().latches()[static_cast<std::size_t>(idx)];
      const aig::TV v = sim_.value(ts_.aig().next(latch_node), lane);
      const aig::TV want = l.sign() ? aig::TV::kZero : aig::TV::kOne;
      if (v != want) return false;
    }
    return true;
  };
  return lift(pred_full, inputs, target_definite);
}

Cube Lifter::lift_bad(const Cube& state_full, const std::vector<Lit>& inputs) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kLift);
  auto target_definite = [&](std::size_t lane) {
    // No constraint checks needed: the bad cone conjoins the invariant
    // constraints at TransitionSystem construction, so bad == 1 (definite)
    // already forces every constraint definite-true.
    const Lit bad = ts_.bad();
    const aig::TV v = sim_.value(
        aig::AigLit::make(static_cast<std::uint32_t>(bad.var()), bad.sign()),
        lane);
    return v == aig::TV::kOne;
  };
  return lift(state_full, inputs, target_definite);
}

}  // namespace pilot::ic3
