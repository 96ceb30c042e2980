/// Generalizer tests: every returned cube must remain relative-inductive
/// and initiation-safe, must subsume the input cube, and EVERY registered
/// strategy — the fixed drop loops, the DAC'24 predictor, the SuYC25
/// dynamic meta-strategy, and any plug-in — must preserve these invariants
/// while shrinking cubes.  The suite parametrizes over the live registry,
/// so a newly registered strategy is covered without editing this file.
#include <gtest/gtest.h>

#include "circuits/families.hpp"
#include "ic3/gen_strategy.hpp"
#include "ic3/generalizer.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

struct GenFixture {
  explicit GenFixture(const std::string& gen_spec,
                      circuits::CircuitCase circuit_case)
      : cc(std::move(circuit_case)),
        ts(ts::TransitionSystem::from_aig(cc.aig)) {
    cfg.gen_spec = gen_spec;
    solvers = std::make_unique<SolverManager>(ts, cfg, stats);
    generalizer =
        std::make_unique<Generalizer>(ts, *solvers, frames, cfg, stats);
    solvers->ensure_level(2);
    frames.ensure_level(2);
  }

  void add_lemma(const Cube& c, std::size_t level) {
    if (frames.add_lemma(c, level)) solvers->add_lemma_clause(c, level);
  }

  circuits::CircuitCase cc;
  ts::TransitionSystem ts;
  Config cfg;
  Ic3Stats stats;
  Frames frames;
  std::unique_ptr<SolverManager> solvers;
  std::unique_ptr<Generalizer> generalizer;
};

/// Every registered strategy (down, ctg, cav23, predict, dynamic, and any
/// test-registered plug-ins that reach this binary).
class GeneralizerStrategies
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneralizerStrategies, ResultSubsumesInputAndStaysInductive) {
  GenFixture f(GetParam(), circuits::token_ring_safe(6));
  // Blockable cube: tokens at positions 1 and 3 plus noise bits at 0/2
  // (all zero).  Any generalization must stay inductive at level 1.
  std::vector<Lit> lits{Lit::make(f.ts.state_var(1)),
                        Lit::make(f.ts.state_var(3)),
                        Lit::make(f.ts.state_var(0), true),
                        Lit::make(f.ts.state_var(2), true)};
  const Cube cube = Cube::from_lits(std::move(lits));
  Cube core;
  ASSERT_TRUE(f.solvers->relative_inductive(cube, 0, false, &core,
                                            Deadline{}));

  const Cube g = f.generalizer->generalize(
      cube, core, 1, Deadline{},
      [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });

  EXPECT_TRUE(g.subset_of(cube)) << g.to_string();
  EXPECT_FALSE(g.empty());
  EXPECT_FALSE(f.ts.cube_intersects_init(g.lits()));
  // The generalized cube must still be relative inductive.
  EXPECT_TRUE(
      f.solvers->relative_inductive(g, 0, false, nullptr, Deadline{}));
  // The driver attributed the attempt to whichever strategy ran it.
  std::uint64_t attempts = 0;
  for (const GenStrategyStats& s : f.stats.gen_strategies) {
    attempts += s.attempts;
  }
  EXPECT_EQ(attempts, f.stats.num_generalizations);
  EXPECT_EQ(f.stats.num_generalizations, 1u);
}

TEST_P(GeneralizerStrategies, DropsNoiseLiteralsFromRingCube) {
  GenFixture f(GetParam(), circuits::token_ring_safe(8));
  // Two tokens + six noise literals: a good generalizer keeps ~2 literals
  // (the pairwise exclusion lemma); we only require real progress.
  std::vector<Lit> lits;
  lits.push_back(Lit::make(f.ts.state_var(2)));
  lits.push_back(Lit::make(f.ts.state_var(5)));
  for (const std::size_t i : {0u, 1u, 3u, 4u, 6u, 7u}) {
    lits.push_back(Lit::make(f.ts.state_var(i), true));
  }
  const Cube cube = Cube::from_lits(std::move(lits));
  Cube core;
  ASSERT_TRUE(
      f.solvers->relative_inductive(cube, 0, false, &core, Deadline{}));
  const Cube g = f.generalizer->generalize(
      cube, core, 1, Deadline{},
      [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });
  EXPECT_LT(g.size(), cube.size());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GeneralizerStrategies,
    ::testing::Values("down", "ctg", "cav23", "predict", "dynamic",
                      "dynamic:4,0.5"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == ',' || c == '.') c = '_';
      }
      return name;
    });

/// The registry is the source of truth: the fixed list above must cover
/// every built-in (a new built-in strategy must be added to the values so
/// it gets the invariant coverage).
TEST(GeneralizerStrategies_Registry, FixedListCoversBuiltins) {
  for (const char* builtin : {"down", "ctg", "cav23", "predict", "dynamic"}) {
    EXPECT_TRUE(gen_strategy_registered(builtin)) << builtin;
  }
}

TEST(Generalizer, SingletonCubeIsNotDroppedToEmpty) {
  GenFixture f("down", circuits::counter_wrap_safe(3, 4, 6));
  // {bit2=1} is already minimal for "count ≥ 4 unreachable".
  const Cube cube = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  Cube core;
  ASSERT_TRUE(
      f.solvers->relative_inductive(cube, 0, false, &core, Deadline{}));
  const Cube g = f.generalizer->generalize(
      cube, core, 1, Deadline{}, [&](const Cube&, std::size_t) {});
  EXPECT_EQ(g.size(), 1u);
}

TEST(Generalizer, Cav23OrderingPrefersParentLiterals) {
  GenFixture f("cav23", circuits::token_ring_safe(6));
  // Install a parent lemma {s1, s3} at level 1 = delta(1), plus the
  // rotation predecessor {s0, s2} so the superset cube below is actually
  // inductive relative to R_1.
  const Cube parent = Cube::from_lits(
      {Lit::make(f.ts.state_var(1)), Lit::make(f.ts.state_var(3))});
  f.add_lemma(parent, 1);
  f.add_lemma(Cube::from_lits({Lit::make(f.ts.state_var(0)),
                               Lit::make(f.ts.state_var(2))}),
              1);
  // Generalize a superset cube at level 2: with the CAV'23 ordering the
  // non-parent literal (s5=0) is attempted first, and the surviving cube
  // keeps the parent's shape.
  std::vector<Lit> lits{Lit::make(f.ts.state_var(1)),
                        Lit::make(f.ts.state_var(3)),
                        Lit::make(f.ts.state_var(5), true)};
  const Cube cube = Cube::from_lits(std::move(lits));
  Cube core;
  ASSERT_TRUE(
      f.solvers->relative_inductive(cube, 1, false, &core, Deadline{}));
  const Cube g = f.generalizer->generalize(
      cube, core, 2, Deadline{},
      [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });
  EXPECT_TRUE(g.subset_of(cube));
  EXPECT_FALSE(f.ts.cube_intersects_init(g.lits()));
}

TEST(Generalizer, CtgModeBlocksCtgsAsSideEffect) {
  // On the wrap counter the CTG path exercises recursive blocking; we
  // check it terminates, produces a valid lemma, and may add side lemmas.
  GenFixture f("ctg", circuits::counter_wrap_safe(4, 8, 14));
  f.solvers->ensure_level(3);
  f.frames.ensure_level(3);
  const Cube cube = Cube::from_lits({Lit::make(f.ts.state_var(3)),
                                     Lit::make(f.ts.state_var(2)),
                                     Lit::make(f.ts.state_var(1))});
  Cube core;
  ASSERT_TRUE(
      f.solvers->relative_inductive(cube, 0, false, &core, Deadline{}));
  const Cube g = f.generalizer->generalize(
      cube, core, 1, Deadline{},
      [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });
  EXPECT_FALSE(g.empty());
  EXPECT_TRUE(
      f.solvers->relative_inductive(g, 0, false, nullptr, Deadline{}));
}

TEST(Generalizer, MicQueryCountIsBoundedByCubeSizeTimesPasses) {
  GenFixture f("down", circuits::token_ring_safe(6));
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < 6; ++i) {
    lits.push_back(Lit::make(f.ts.state_var(i), i != 1 && i != 4));
  }
  const Cube cube = Cube::from_lits(std::move(lits));
  Cube core;
  ASSERT_TRUE(
      f.solvers->relative_inductive(cube, 0, false, &core, Deadline{}));
  const std::uint64_t before = f.stats.num_mic_queries;
  f.generalizer->generalize(cube, core, 1, Deadline{},
                            [&](const Cube&, std::size_t) {});
  // Plain down: at most one query per literal of the (core-shrunk) cube.
  EXPECT_LE(f.stats.num_mic_queries - before, core.size());
}

}  // namespace
}  // namespace pilot::ic3
