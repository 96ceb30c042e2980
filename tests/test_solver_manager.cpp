/// SolverManager tests: relative-induction query semantics on small
/// hand-analyzable systems, unsat-core shrinking with initiation repair,
/// model extraction, activation-literal layering, and rebuilds.
#include <gtest/gtest.h>

#include <vector>

#include "circuits/families.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

/// 3-bit counter wrapping at 4 (reachable: 0..3), bad = count == 6.
struct WrapCounterFixture {
  WrapCounterFixture()
      : cc(circuits::counter_wrap_safe(3, 4, 6)),
        ts(ts::TransitionSystem::from_aig(cc.aig)),
        solvers(ts, cfg, stats) {}

  Cube state_cube(std::uint64_t value) {
    std::vector<Lit> lits;
    for (std::size_t i = 0; i < ts.num_latches(); ++i) {
      lits.push_back(Lit::make(ts.state_var(i), ((value >> i) & 1ULL) == 0));
    }
    return Cube::from_lits(std::move(lits));
  }

  circuits::CircuitCase cc;
  ts::TransitionSystem ts;
  Config cfg;
  Ic3Stats stats;
  SolverManager solvers{ts, cfg, stats};
};

TEST(SolverManager, BadReachableFromUnconstrainedFrame) {
  WrapCounterFixture f;
  f.solvers.ensure_level(1);
  // R_1 = ⊤: some state raises bad (count == 6 itself).
  EXPECT_TRUE(f.solvers.solve_bad(1, Deadline{}));
  // R_0 = I = {count = 0}: bad unreachable at step 0.
  EXPECT_FALSE(f.solvers.solve_bad(0, Deadline{}));
}

TEST(SolverManager, RelativeInductiveAtLevelZero) {
  WrapCounterFixture f;
  f.solvers.ensure_level(1);
  // Cube {count=6}: I ∧ ¬c ∧ T cannot reach count=6 in one step
  // (0 steps to 1), so ¬c is inductive relative to R_0.
  Cube core;
  EXPECT_TRUE(f.solvers.relative_inductive(f.state_cube(6), 0,
                                           /*cube_clause_in_frame=*/false,
                                           &core, Deadline{}));
  EXPECT_FALSE(core.empty());
  // Cube {count=1} IS reachable in one step from I: not inductive.
  EXPECT_FALSE(f.solvers.relative_inductive(f.state_cube(1), 0, false,
                                            nullptr, Deadline{}));
}

TEST(SolverManager, CtiModelMatchesTransition) {
  WrapCounterFixture f;
  f.solvers.ensure_level(1);
  // {count=1} fails: the CTI predecessor must be count=0 with successor 1.
  ASSERT_FALSE(f.solvers.relative_inductive(f.state_cube(1), 0, false,
                                            nullptr, Deadline{}));
  const Cube pre = f.solvers.model_state(/*primed=*/false);
  const Cube post = f.solvers.model_state(/*primed=*/true);
  EXPECT_EQ(pre, f.state_cube(0));
  EXPECT_EQ(post, f.state_cube(1));
}

TEST(SolverManager, LemmaClausesRestrictHigherFrames) {
  WrapCounterFixture f;
  f.solvers.ensure_level(2);
  // Block count=6 in R_1 and R_2... adding at level 2 covers queries at
  // levels ≤ 2 (activation act_2 is assumed for queries at 0,1,2).
  f.solvers.add_lemma_clause(f.state_cube(6), 2);
  // Bad (count == 6) is now excluded from R_1 and R_2.
  EXPECT_FALSE(f.solvers.solve_bad(1, Deadline{}));
  EXPECT_FALSE(f.solvers.solve_bad(2, Deadline{}));
}

TEST(SolverManager, CoreShrinkKeepsInitiationRepaired) {
  // System: two latches a (init 0), b (init 0); a' = a, b' = b (frozen).
  // Cube {a=1, b=0}: inductive relative to I (a=1 unreachable).  The core
  // may drop a=1 (b'=0 alone refutes nothing...) — the repair must keep the
  // result disjoint from I = {a=0, b=0}.
  aig::Aig a;
  const aig::AigLit la = a.add_latch(aig::l_False);
  const aig::AigLit lb = a.add_latch(aig::l_False);
  a.set_next(la, la);
  a.set_next(lb, lb);
  a.add_bad(a.make_and(la, !lb));
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(a);
  Config cfg;
  Ic3Stats stats;
  SolverManager solvers(ts, cfg, stats);
  solvers.ensure_level(1);

  const Cube cube = Cube::from_lits(
      {Lit::make(ts.state_var(0)), Lit::make(ts.state_var(1), true)});
  Cube core;
  ASSERT_TRUE(solvers.relative_inductive(cube, 0, false, &core, Deadline{}));
  EXPECT_TRUE(core.subset_of(cube));
  EXPECT_FALSE(ts.cube_intersects_init(core.lits()));
}

TEST(SolverManager, PushQueryUsesFrameClause) {
  WrapCounterFixture f;
  f.solvers.ensure_level(2);
  // Before any lemma: the single-state cube {count=6} is not inductive at
  // level 1 (R_1 = ⊤ contains its predecessor 5).
  EXPECT_FALSE(f.solvers.relative_inductive(f.state_cube(6), 1,
                                            /*cube_clause_in_frame=*/false,
                                            nullptr, Deadline{}));
  // Cube {bit2=1} = counts 4..7.  Its only predecessors (under the wrap-at-4
  // transition) are 4, 5, 6 — all inside the cube itself, so with the
  // cube's clause in R_1 the push query must be UNSAT (inductive).
  const Cube high = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  f.solvers.add_lemma_clause(high, 1);
  EXPECT_TRUE(f.solvers.relative_inductive(high, 1,
                                           /*cube_clause_in_frame=*/true,
                                           nullptr, Deadline{}));
}

TEST(SolverManager, RebuildPreservesSemantics) {
  WrapCounterFixture f;
  Frames frames;
  frames.ensure_level(3);
  f.solvers.ensure_level(3);
  // The solver keeps every clause it was given; Frames keeps only the
  // lemmas nothing displaced.  A rebuild replays just the latter.
  auto install = [&](const Cube& c, std::size_t level) {
    if (frames.add_lemma(c, level)) f.solvers.add_lemma_clause(c, level);
  };
  install(f.state_cube(6), 2);
  install(f.state_cube(7), 1);
  install(f.state_cube(5), 1);
  // {bit2=1, bit1=1} = counts 6 and 7: displaces both single-state lemmas.
  install(Cube::from_lits({Lit::make(f.ts.state_var(2)),
                           Lit::make(f.ts.state_var(1))}),
          2);
  frames.push_lemma(f.state_cube(5), 1);
  f.solvers.add_lemma_clause(f.state_cube(5), 2);

  // Every full state cube and every one-literal cube, at every level, with
  // and without the temporary ¬c clause, plus solve_bad at every level.
  std::vector<Cube> cubes;
  for (std::uint64_t v = 0; v < 8; ++v) cubes.push_back(f.state_cube(v));
  for (std::size_t i = 0; i < f.ts.num_latches(); ++i) {
    cubes.push_back(Cube::from_lits({Lit::make(f.ts.state_var(i))}));
    cubes.push_back(Cube::from_lits({Lit::make(f.ts.state_var(i), true)}));
  }
  auto answers = [&] {
    std::vector<bool> out;
    for (std::size_t level = 0; level <= 3; ++level) {
      out.push_back(f.solvers.solve_bad(level, Deadline{}));
      for (const Cube& c : cubes) {
        for (const bool in_frame : {false, true}) {
          out.push_back(f.solvers.relative_inductive(c, level, in_frame,
                                                     nullptr, Deadline{}));
        }
      }
    }
    return out;
  };
  ASSERT_FALSE(f.solvers.solve_bad(1, Deadline{}));
  const std::vector<bool> before = answers();

  f.solvers.rebuild(frames);
  EXPECT_EQ(answers(), before);
  EXPECT_EQ(f.stats.num_solver_rebuilds, 1u);
}

TEST(SolverManager, ModelInputsComeFromTheInputCone) {
  const circuits::CircuitCase cc = circuits::counter_enable_unsafe(3, 2);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Config cfg;
  Ic3Stats stats;
  SolverManager solvers(ts, cfg, stats);
  solvers.ensure_level(1);
  ASSERT_TRUE(solvers.solve_bad(1, Deadline{}));
  const std::vector<Lit> inputs = solvers.model_inputs();
  EXPECT_EQ(inputs.size(), ts.num_inputs());
  for (const Lit l : inputs) {
    EXPECT_FALSE(ts.is_state_var(l.var()));
  }
}

TEST(SolverManager, TimeoutThrows) {
  WrapCounterFixture f;
  f.solvers.ensure_level(1);
  const Deadline expired = Deadline::in_milliseconds(0);
  while (!expired.expired()) {
  }
  EXPECT_THROW(f.solvers.solve_bad(1, expired), TimeoutError);
}

}  // namespace
}  // namespace pilot::ic3
