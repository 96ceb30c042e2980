/// Generalizer tests: every returned cube must remain relative-inductive
/// and initiation-safe, must subsume the input cube, and EVERY strategy —
/// the fixed drop loops, the DAC'24 predictor and the SuYC25 dynamic
/// recipe — must preserve these invariants while shrinking cubes.  The
/// suite runs over every name of gen_strategy_names().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "circuits/builder.hpp"
#include "circuits/families.hpp"
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

/// Every strategy (down, ctg, cav23, predict, dynamic), and dynamic with
/// args.
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
    Builtins, GeneralizerStrategies,
    ::testing::Values("down", "ctg", "cav23", "predict", "dynamic",
                      "dynamic:4,0.5"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == ',' || c == '.') c = '_';
      }
      return name;
    });

/// The name list is the source of truth: the fixed list above must cover
/// every strategy (a new one must be added to the values so it gets the
/// invariant coverage).
TEST(GeneralizerStrategies_Names, FixedListCoversEveryName) {
  const std::vector<std::string> covered{"down", "ctg", "cav23", "predict",
                                         "dynamic"};
  for (const std::string& name : gen_strategy_names()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), name), covered.end())
        << name;
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

/// kCtgMicAttempts in generalizer.cpp: ctgDown's mic() gives up after this
/// many failed drops in a row (IC3ref's micAttempts).
constexpr std::uint64_t kMicAttempts = 3;

/// Six latches x0..x5 (reset 0) that load one of eight words chosen by
/// three inputs, whatever the current state, so every state has the same
/// successors S.  A word is a number with bit j = x_j: every bit but x0,
/// x2, x3 or x4 is 62, 59, 55 or 47; every bit but x1 and x5 is 29; x0x1
/// is 3 and x0x2 is 5.
circuits::CircuitCase eight_word_loader() {
  aig::Aig aig;
  const circuits::Word sel = circuits::make_inputs(aig, 3, "sel");
  const circuits::Word x = circuits::make_latches(aig, 6, 0, "x");
  const std::array<std::uint64_t, 8> words{0, 62, 59, 55, 47, 29, 3, 5};
  circuits::Word next;
  for (std::size_t j = 0; j < x.size(); ++j) {
    std::vector<aig::AigLit> loads;
    for (std::size_t v = 0; v < words.size(); ++v) {
      if ((words[v] >> j) & 1) {
        loads.push_back(circuits::equals_const(aig, sel, v));
      }
    }
    next.push_back(aig.make_or_n(loads));
  }
  circuits::connect(aig, x, next);
  aig.add_bad(circuits::equals_const(aig, x, 63));  // not a word of S
  return circuits::CircuitCase{"eight_word_loader", "test", std::move(aig),
                               true, -1};
}

TEST(Generalizer, CtgStopsAfterThreeFailedDrops) {
  // At level 1 the frame below is I itself: a drop fails exactly when the
  // candidate meets I or holds a word of S.  A failed query's CTG is the
  // initial state, which level 1 cannot block, and joining with it leaves
  // nothing or a cube that meets I; so each candidate that passes
  // initiation costs one query, and the queries count the candidates tried.
  GenFixture f("ctg", eight_word_loader());
  const auto x = [&](std::size_t j, bool neg = false) {
    return Lit::make(f.ts.state_var(j), neg);
  };
  const auto generalize = [&](const Cube& cube) {
    EXPECT_TRUE(
        f.solvers->relative_inductive(cube, 0, false, nullptr, Deadline{}));
    return f.generalizer->generalize(
        cube, cube, 1, Deadline{},
        [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });
  };

  // All ones: dropping x0 fails (62), dropping x1 succeeds and its core
  // keeps the rest (each is the only literal that excludes one word), then
  // x2, x3 and x4 fail (59, 55, 47).  The success reset the count, so the
  // loop ends there, before x5 (29 would fail it too).
  const Cube ones = Cube::from_lits({x(0), x(1), x(2), x(3), x(4), x(5)});
  std::uint64_t before = f.stats.num_mic_queries;
  EXPECT_EQ(generalize(ones).to_string(), ones.without(x(1)).to_string());
  EXPECT_EQ(f.stats.num_mic_queries - before, 2 + kMicAttempts);
  EXPECT_EQ(f.stats.num_mic_drops, 1u);

  // x0 alone: dropping x0 meets I, which counts as a failed drop without a
  // query; x0x1 and x0x2 fail the next two.  Dropping ¬x3 would succeed,
  // but three failures in a row have ended the loop.
  const Cube single =
      Cube::from_lits({x(0), x(1, true), x(2, true), x(3, true), x(4, true),
                       x(5, true)});
  before = f.stats.num_mic_queries;
  EXPECT_EQ(generalize(single).to_string(), single.to_string());
  EXPECT_EQ(f.stats.num_mic_queries - before, kMicAttempts - 1);
  EXPECT_EQ(f.stats.num_mic_drops, 1u);
}

/// Five latches a..e and one input; a state is a number with bit 0 = a.
/// Every state keeps its value except along these edges:
///   t2 -> y on input 0, t2 -> t4 on input 1,  q -> t3 -> y,  t4 -> x.
/// The initial state is a self-loop, so it is the only reachable state.
constexpr std::uint64_t kInit = 0b00010, kT2 = 0b01000, kY = 0b00101,
                        kQ = 0b00110, kT3 = 0b10110, kT4 = 0b10000,
                        kX = 0b01110;

circuits::CircuitCase kept_literal_graph() {
  aig::Aig aig;
  const aig::AigLit in = aig.add_input("in");
  const circuits::Word s = circuits::make_latches(aig, 5, kInit, "s");
  struct Edge {
    std::uint64_t from, to;
    aig::AigLit when;
  };
  const aig::AigLit always = aig::AigLit::constant(true);
  const std::array<Edge, 5> edges{{{kT2, kY, !in},
                                   {kT2, kT4, in},
                                   {kQ, kT3, always},
                                   {kT3, kY, always},
                                   {kT4, kX, always}}};
  std::vector<aig::AigLit> moves;
  std::vector<std::vector<aig::AigLit>> sets(s.size());
  for (const Edge& e : edges) {
    const aig::AigLit move =
        aig.make_and(circuits::equals_const(aig, s, e.from), e.when);
    moves.push_back(move);
    for (std::size_t j = 0; j < s.size(); ++j) {
      if ((e.to >> j) & 1) sets[j].push_back(move);
    }
  }
  const aig::AigLit stays = !aig.make_or_n(moves);
  circuits::Word next;
  for (std::size_t j = 0; j < s.size(); ++j) {
    sets[j].push_back(aig.make_and(stays, s[j]));
    next.push_back(aig.make_or_n(sets[j]));
  }
  circuits::connect(aig, s, next);
  aig.add_bad(circuits::equals_const(aig, s, 0b11111));
  return circuits::CircuitCase{"kept_literal_graph", "test", std::move(aig),
                               true, -1};
}

TEST(Generalizer, CtgJoinNeverDropsAKeptLiteral) {
  // Generalize abc at level 3 with empty frames.
  //  - Dropping a: bc's one CTG is t4, which t2 reaches, so it cannot be
  //    blocked; joining with t4 leaves nothing.  a is kept.
  //  - Dropping b: ac has the CTGs t2 (no predecessor: blocked) and t3
  //    (predecessor q, which no lemma can cover without covering the
  //    initial state).  Joining ac with t3 gives c, which drops the kept a:
  //    the drop fails.  Without that rule, c then gets t4 blocked (t2, its
  //    one predecessor, is gone) and holds, and mic() returns c.
  //  - Dropping c: ab has no predecessor outside it.
  GenFixture f("ctg", kept_literal_graph());
  f.solvers->ensure_level(3);
  f.frames.ensure_level(3);
  const auto lit = [&](std::size_t j) { return Lit::make(f.ts.state_var(j)); };
  const Cube abc = Cube::from_lits({lit(0), lit(1), lit(2)});
  ASSERT_TRUE(
      f.solvers->relative_inductive(abc, 2, false, nullptr, Deadline{}));
  const Cube g = f.generalizer->generalize(
      abc, abc, 3, Deadline{},
      [&](const Cube& c, std::size_t lv) { f.add_lemma(c, lv); });
  EXPECT_EQ(g.to_string(), Cube::from_lits({lit(0), lit(1)}).to_string());
  EXPECT_TRUE(
      f.solvers->relative_inductive(g, 2, false, nullptr, Deadline{}));
}

}  // namespace
}  // namespace pilot::ic3
