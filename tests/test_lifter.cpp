/// Lifter tests: ternary-simulation lifting must produce cubes whose every
/// completion still reaches the target — verified by an independent SAT
/// query — and should genuinely shrink cubes with irrelevant latches.  The
/// packed lift must equal a byte-wise reference: one full
/// aig::TernarySimulator sweep per latch.
#include <gtest/gtest.h>

#include <functional>

#include "circuits/builder.hpp"
#include "circuits/families.hpp"
#include "ic3/lifter.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

/// A circuit where most latches are irrelevant to the property: an 8-bit
/// free counter plus a 1-bit flag latch; bad = flag & (count == 3).
struct LiftFixture {
  LiftFixture() {
    aig::Aig a;
    const aig::AigLit set_flag = a.add_input("set");
    const circuits::Word count = circuits::make_latches(a, 8, 0, "count");
    const aig::AigLit flag = a.add_latch(aig::l_False, "flag");
    circuits::connect(a, count, circuits::increment(a, count));
    a.set_next(flag, a.make_or(flag, set_flag));
    a.add_bad(a.make_and(flag, circuits::equals_const(a, count, 3)));
    ts = std::make_unique<ts::TransitionSystem>(
        ts::TransitionSystem::from_aig(a));
    lifter = std::make_unique<Lifter>(*ts, stats);
  }

  /// Full state cube: count value + flag bit.
  Cube full_state(std::uint64_t count_value, bool flag_value) {
    std::vector<Lit> lits;
    for (std::size_t i = 0; i < 8; ++i) {
      lits.push_back(Lit::make(ts->state_var(i),
                               ((count_value >> i) & 1ULL) == 0));
    }
    lits.push_back(Lit::make(ts->state_var(8), !flag_value));
    return Cube::from_lits(std::move(lits));
  }

  /// Independent validation: every state in `cube` with `inputs` must step
  /// into `successor`:  UNSAT(cube ∧ inputs ∧ T ∧ ¬successor′).
  bool lift_is_valid(const Cube& cube, const std::vector<Lit>& inputs,
                     const Cube& successor) {
    sat::Solver s;
    ts->install(s);
    const Lit act = Lit::make(s.new_var());
    std::vector<Lit> clause{~act};
    for (const Lit l : successor) clause.push_back(~ts->prime(l));
    s.add_clause(clause);
    std::vector<Lit> assumptions{act};
    for (const Lit l : inputs) assumptions.push_back(l);
    for (const Lit l : cube) assumptions.push_back(l);
    return s.solve(assumptions) == sat::SolveResult::kUnsat;
  }

  /// Independent validation of a bad lift: every state in `cube` with
  /// `inputs` must raise bad:  UNSAT(cube ∧ inputs ∧ ¬bad).
  bool bad_lift_is_valid(const Cube& cube, const std::vector<Lit>& inputs) {
    sat::Solver s;
    ts->install(s);
    std::vector<Lit> assumptions{~ts->bad()};
    for (const Lit l : inputs) assumptions.push_back(l);
    for (const Lit l : cube) assumptions.push_back(l);
    return s.solve(assumptions) == sat::SolveResult::kUnsat;
  }

  std::unique_ptr<ts::TransitionSystem> ts;
  Ic3Stats stats;
  std::unique_ptr<Lifter> lifter;
};

TEST(Lifter, PredecessorLiftIsSoundAndShrinks) {
  LiftFixture f;
  // Predecessor (count=2, flag=1) with no set input steps to
  // (count=3, flag=1); the successor cube is just {flag, count==3}'s
  // pre-image target: pick successor = full state (3, true).
  const Cube pred = f.full_state(2, true);
  const Cube succ = f.full_state(3, true);
  const std::vector<Lit> inputs{Lit::make(f.ts->input_var(0), true)};
  const Cube lifted = f.lifter->lift_predecessor(pred, inputs, succ);
  EXPECT_TRUE(lifted.subset_of(pred));
  EXPECT_TRUE(f.lift_is_valid(lifted, inputs, succ)) << lifted.to_string();
}

TEST(Lifter, BadLiftDropsIrrelevantLatches) {
  LiftFixture f;
  // State (count=3, flag=1) raises bad regardless of the input.
  const Cube state = f.full_state(3, true);
  const std::vector<Lit> inputs{Lit::make(f.ts->input_var(0), true)};
  const Cube lifted = f.lifter->lift_bad(state, inputs);
  EXPECT_TRUE(lifted.subset_of(state));
  // All 9 latches matter here (count==3 needs all count bits + flag):
  // nothing shrinks below what keeps bad provable.
  EXPECT_EQ(lifted.size(), 9u);
}

TEST(Lifter, SuccessorTargetWithFewLiterals) {
  LiftFixture f;
  // Successor target: {flag=1} only.  From (count=7, flag=1), any input
  // keeps flag=1 — the count bits are irrelevant and must be dropped.
  const Cube pred = f.full_state(7, true);
  const Cube succ = Cube::from_lits({Lit::make(f.ts->state_var(8))});
  const std::vector<Lit> inputs{Lit::make(f.ts->input_var(0), true)};
  const Cube lifted = f.lifter->lift_predecessor(pred, inputs, succ);
  EXPECT_TRUE(f.lift_is_valid(lifted, inputs, succ));
  EXPECT_LE(lifted.size(), 1u) << lifted.to_string();
  EXPECT_TRUE(lifted.contains(Lit::make(f.ts->state_var(8))));
}

// ----- ternary lifting against the byte-wise reference ----------------------

TEST(TernaryLift, PredecessorLiftsAreSoundAndNeverGrow) {
  LiftFixture f;
  for (std::uint64_t count = 0; count < 8; ++count) {
    for (const bool flag : {false, true}) {
      const Cube pred = f.full_state(count, flag);
      const Cube succ = f.full_state(count + 1, flag);
      const std::vector<Lit> inputs{Lit::make(f.ts->input_var(0), !flag)};
      const Cube lifted = f.lifter->lift_predecessor(pred, inputs, succ);
      EXPECT_TRUE(lifted.subset_of(pred)) << count << "/" << flag;
      EXPECT_LE(lifted.size(), pred.size());
      EXPECT_TRUE(f.lift_is_valid(lifted, inputs, succ))
          << "count=" << count << " flag=" << flag << " "
          << lifted.to_string();
    }
  }
}

TEST(TernaryLift, BadLiftsAreIndependentlyValidated) {
  LiftFixture f;
  // (count=3, flag=1) raises bad; the lift may only shrink the cube and
  // every completion of the result must still raise bad.
  const Cube state = f.full_state(3, true);
  const std::vector<Lit> inputs{Lit::make(f.ts->input_var(0), true)};
  const Cube lifted = f.lifter->lift_bad(state, inputs);
  EXPECT_TRUE(lifted.subset_of(state));
  EXPECT_LE(lifted.size(), state.size());
  EXPECT_TRUE(f.bad_lift_is_valid(lifted, inputs)) << lifted.to_string();
}

/// The byte-wise reference lift: seed latches from `full` and inputs from
/// `inputs` (everything else X), then X out one latch at a time, one full
/// TernarySimulator sweep per latch, keeping the X while `target_definite`
/// holds.
Cube reference_lift(
    const ts::TransitionSystem& ts, const Cube& full,
    const std::vector<Lit>& inputs,
    const std::function<bool(const aig::TernarySimulator&)>& target_definite) {
  auto tv = [](Lit l) { return l.sign() ? aig::TV::kZero : aig::TV::kOne; };
  aig::TernarySimulator sim(ts.aig());
  std::vector<aig::TV> latches(ts.num_latches(), aig::TV::kX);
  std::vector<aig::TV> in(ts.num_inputs(), aig::TV::kX);
  for (const Lit l : full) {
    latches[static_cast<std::size_t>(ts.latch_index_of(l.var()))] = tv(l);
  }
  for (const Lit l : inputs) {
    for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
      if (ts.input_var(i) == l.var()) in[i] = tv(l);
    }
  }
  sim.compute(latches, in);
  if (!target_definite(sim)) return full;
  std::vector<Lit> kept;
  for (const Lit l : full) {
    const auto idx = static_cast<std::size_t>(ts.latch_index_of(l.var()));
    latches[idx] = aig::TV::kX;
    sim.compute(latches, in);
    if (!target_definite(sim)) {
      latches[idx] = tv(l);  // must keep
      kept.push_back(l);
    }
  }
  if (kept.empty()) return full;
  return Cube::from_sorted(std::move(kept));
}

TEST(Lifter, PackedAndByteProduceIdenticalCubes) {
  // The packed lift is a performance rewrite of the byte-wise reference,
  // not a semantic variant: its triage + sequential-confirmation schedule
  // tracks the one-sweep-per-latch loop exactly, so the lifted cubes must
  // be *equal*, not merely both sound.
  LiftFixture packed;
  const ts::TransitionSystem& ts = *packed.ts;
  auto reaches = [&](const Cube& succ) {
    return [&ts, succ](const aig::TernarySimulator& sim) {
      for (const aig::AigLit c : ts.aig().constraints()) {
        if (sim.value(c) != aig::TV::kOne) return false;
      }
      for (const Lit l : succ) {
        const std::uint32_t latch_node =
            ts.aig().latches()[static_cast<std::size_t>(
                ts.latch_index_of(l.var()))];
        const aig::TV want = l.sign() ? aig::TV::kZero : aig::TV::kOne;
        if (sim.value(ts.aig().next(latch_node)) != want) return false;
      }
      return true;
    };
  };
  auto raises_bad = [&ts](const aig::TernarySimulator& sim) {
    const Lit bad = ts.bad();
    return sim.value(aig::AigLit::make(static_cast<std::uint32_t>(bad.var()),
                                       bad.sign())) == aig::TV::kOne;
  };
  for (std::uint64_t count = 0; count < 16; ++count) {
    for (const bool flag : {false, true}) {
      const Cube pred = packed.full_state(count, flag);
      const Cube succ_full = packed.full_state((count + 1) & 0xFF, flag);
      const Cube succ_flag =
          Cube::from_lits({Lit::make(ts.state_var(8), !flag)});
      const std::vector<Lit> inputs{Lit::make(ts.input_var(0), !flag)};
      for (const Cube& succ : {succ_full, succ_flag}) {
        const Cube a = packed.lifter->lift_predecessor(pred, inputs, succ);
        const Cube b = reference_lift(ts, pred, inputs, reaches(succ));
        EXPECT_EQ(a, b) << "count=" << count << " flag=" << flag << " pred "
                        << a.to_string() << " vs " << b.to_string();
      }
      const Cube a = packed.lifter->lift_bad(pred, inputs);
      const Cube b = reference_lift(ts, pred, inputs, raises_bad);
      EXPECT_EQ(a, b) << "count=" << count << " flag=" << flag << " bad "
                      << a.to_string() << " vs " << b.to_string();
    }
  }
}

TEST(Lifter, TernaryRespectsConstraints) {
  // Constrained shift register: the input is forced low; lifting a
  // predecessor must keep enough literals that the constraint evaluation
  // stays definite-true.
  const auto cc = circuits::shift_register(4, true);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Ic3Stats stats;
  Lifter lifter(ts, stats);
  // Predecessor: all stages 0; successor: all stages 0; input 0.
  std::vector<Lit> state_lits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    state_lits.push_back(Lit::make(ts.state_var(i), true));
  }
  const Cube pred = Cube::from_lits(state_lits);
  const Cube succ = pred;
  const std::vector<Lit> inputs{Lit::make(ts.input_var(0), true)};
  const Cube lifted = lifter.lift_predecessor(pred, inputs, succ);
  EXPECT_TRUE(lifted.subset_of(pred));
  EXPECT_FALSE(lifted.empty());
}

}  // namespace
}  // namespace pilot::ic3
