/// Stress and differential tests targeting the solver's storage machinery:
/// clause-database reduction, arena garbage collection, and long
/// incremental sessions must never change answers.  Failures here point at
/// relocation bugs that functional tests rarely reach.
#include <gtest/gtest.h>

#include <tuple>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace pilot::sat {
namespace {

Cnf random_cnf(Rng& rng, int num_vars, int num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    const int len = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < len; ++i) {
      clause.push_back(Lit::make(static_cast<Var>(rng.below(num_vars)),
                                 rng.chance(0.5)));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

class SatStress : public ::testing::TestWithParam<int> {};

TEST_P(SatStress, LongIncrementalSessionMatchesFreshSolvers) {
  // One long-lived solver answers a sequence of assumption queries while
  // clauses trickle in; every answer is cross-checked against a throwaway
  // solver built from scratch.  The long session accumulates learnt
  // clauses, triggers reduce_db and arena GC.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40507 + 3);
  const int num_vars = 60;
  Solver session;
  for (int v = 0; v < num_vars; ++v) session.new_var();

  Cnf accumulated;
  accumulated.num_vars = num_vars;
  bool session_ok = true;
  for (int batch = 0; batch < 12; ++batch) {
    const Cnf fresh_clauses = random_cnf(rng, num_vars, 40);
    for (const auto& clause : fresh_clauses.clauses) {
      if (session_ok) session_ok = session.add_clause(clause);
      accumulated.clauses.push_back(clause);
    }
    // Three random assumption probes per batch.
    for (int probe = 0; probe < 3; ++probe) {
      std::vector<Lit> assumptions;
      for (int v = 0; v < num_vars; ++v) {
        if (rng.chance(0.1)) {
          assumptions.push_back(Lit::make(v, rng.chance(0.5)));
        }
      }
      Solver reference;
      const bool ref_load = load_into_solver(accumulated, reference);
      const SolveResult expected =
          (!ref_load) ? SolveResult::kUnsat : reference.solve(assumptions);
      const SolveResult got = session_ok
                                  ? session.solve(assumptions)
                                  : SolveResult::kUnsat;
      ASSERT_EQ(got, expected)
          << "batch " << batch << " probe " << probe << " diverged";
    }
  }
  // When the formula stayed satisfiable to the end, the session must have
  // done real search work to count as a stress test of the learnt-clause
  // paths (seeds whose formula collapses to top-level UNSAT early are
  // exempt — they exercise the ok_ machinery instead).
  if (session_ok) {
    EXPECT_GT(session.stats().conflicts, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatStress, ::testing::Range(0, 4));

/// How a round retires its temporary clause: a unit clause ¬a, or the
/// solver's query-scoped drop.
enum class Retire { kUnit, kDrop };

class SatTemporaryStress
    : public ::testing::TestWithParam<std::tuple<int, Retire>> {};

TEST_P(SatTemporaryStress, RepeatedTemporaryActivationPattern) {
  // The IC3 usage pattern: a temporary clause guarded by a fresh
  // activation variable, used in one query and retired — hundreds of
  // times.  Every round's answer must match a fresh solver holding the
  // base plus that round's clause.
  const auto [seed, retire] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7177 + 11);
  const int num_vars = 30;
  Solver solver;
  for (int v = 0; v < num_vars; ++v) solver.new_var();
  const Cnf base = random_cnf(rng, num_vars, 90);
  if (!load_into_solver(base, solver)) GTEST_SKIP() << "base unsat";
  const std::size_t base_clauses = solver.num_clauses();

  for (int round = 0; round < 200; ++round) {
    std::vector<Lit> clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(Lit::make(static_cast<Var>(rng.below(num_vars)),
                                 rng.chance(0.5)));
    }
    std::vector<Lit> extra;
    if (rng.chance(0.5)) {
      extra.push_back(
          Lit::make(static_cast<Var>(rng.below(num_vars)), rng.chance(0.5)));
    }
    Lit act = kLitUndef;
    if (retire == Retire::kDrop) {
      act = solver.add_temporary(clause);
    } else {
      act = Lit::make(solver.new_var());
      std::vector<Lit> guarded = clause;
      guarded.push_back(~act);
      solver.add_clause(guarded);
    }
    std::vector<Lit> assumptions{act};
    assumptions.insert(assumptions.end(), extra.begin(), extra.end());
    const SolveResult r = solver.solve(assumptions);
    ASSERT_NE(r, SolveResult::kUnknown);

    Solver reference;
    Cnf with_clause = base;
    with_clause.clauses.push_back(clause);
    const SolveResult expected = load_into_solver(with_clause, reference)
                                     ? reference.solve(extra)
                                     : SolveResult::kUnsat;
    ASSERT_EQ(r, expected) << "round " << round;
    if (r == SolveResult::kSat) {
      for (const auto& c : with_clause.clauses) {
        bool satisfied = false;
        for (const Lit l : c) {
          satisfied = satisfied || solver.model_value(l) == l_True;
        }
        ASSERT_TRUE(satisfied) << "round " << round << ": model falsifies";
      }
    }

    if (retire == Retire::kDrop) {
      solver.drop_temporary();
      EXPECT_EQ(solver.num_clauses(), base_clauses) << "round " << round;
    } else {
      solver.add_unit(~act);
    }
    if (!solver.okay()) break;  // retired units may conflict
  }
  // The base formula must still answer exactly as a fresh solver does.
  Solver reference;
  ASSERT_TRUE(load_into_solver(base, reference));
  if (solver.okay()) {
    EXPECT_EQ(solver.solve(), reference.solve());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SatTemporaryStress,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(Retire::kUnit, Retire::kDrop)));

TEST(SatStress, SimplifyDuringIncrementalUseKeepsAnswers) {
  Rng rng(77);
  const Cnf cnf = random_cnf(rng, 40, 150);
  Solver with_simplify;
  Solver without_simplify;
  const bool ok1 = load_into_solver(cnf, with_simplify);
  const bool ok2 = load_into_solver(cnf, without_simplify);
  ASSERT_EQ(ok1, ok2);
  if (!ok1) return;
  for (int round = 0; round < 10; ++round) {
    std::vector<Lit> assumptions;
    for (int v = 0; v < 40; ++v) {
      if (rng.chance(0.15)) assumptions.push_back(Lit::make(v, rng.chance(0.5)));
    }
    with_simplify.simplify();
    EXPECT_EQ(with_simplify.solve(assumptions),
              without_simplify.solve(assumptions))
        << "round " << round;
  }
}

}  // namespace
}  // namespace pilot::sat
