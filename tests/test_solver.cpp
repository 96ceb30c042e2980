/// Tests for the IC3-shaped SAT hot paths: assumption-prefix trail reuse,
/// clause addition into a kept trail, and the solver-layer statistics —
/// plus an engine-level determinism check over the checked-in fixture
/// corpus (tests/corpus/) with reuse on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "corpus/corpus.hpp"
#include "ic3/engine.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/rng.hpp"

namespace pilot::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

Lit random_lit(Rng& rng, int num_vars) {
  return Lit::make(static_cast<Var>(rng.below(num_vars)), rng.chance(0.5));
}

/// True when `model_of` assigns at least one literal of every recorded
/// clause true and every assumption true.
void expect_model_valid(const Solver& solver,
                        const std::vector<std::vector<Lit>>& clauses,
                        const std::vector<Lit>& assumptions,
                        const char* label) {
  for (const std::vector<Lit>& clause : clauses) {
    bool satisfied = false;
    for (const Lit l : clause) {
      satisfied = satisfied || solver.model_value(l) == l_True;
    }
    EXPECT_TRUE(satisfied) << label << ": model falsifies a clause";
    if (!satisfied) return;
  }
  for (const Lit a : assumptions) {
    EXPECT_EQ(solver.model_value(a), l_True)
        << label << ": model violates assumption " << a.to_string();
  }
}

/// The core must be a subset of the assumptions, and the formula plus the
/// core must be unsatisfiable (verified with a fresh solver).
void expect_core_valid(const Solver& solver, int num_vars,
                       const std::vector<std::vector<Lit>>& clauses,
                       const std::vector<Lit>& assumptions,
                       const char* label) {
  const std::vector<Lit>& core = solver.core();
  for (const Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end())
        << label << ": core literal " << l.to_string()
        << " is not an assumption";
  }
  Solver fresh;
  for (int i = 0; i < num_vars; ++i) fresh.new_var();
  for (const std::vector<Lit>& clause : clauses) fresh.add_clause(clause);
  EXPECT_EQ(fresh.solve(core), SolveResult::kUnsat)
      << label << ": core does not refute the formula";
}

// Drives a reuse-on and a reuse-off solver through an identical randomized
// incremental script — clause additions interleaved with solves whose
// assumption sequences share long mutating prefixes (the IC3 shape) — and
// checks verdict equivalence plus model/core validity on every call.
TEST(TrailReuse, RandomizedIncrementalEquivalence) {
  constexpr int kVars = 60;
  constexpr int kSteps = 200;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0x5EED0000 + seed);
    Solver with_reuse;
    Solver without_reuse;
    with_reuse.set_trail_reuse(true);
    without_reuse.set_trail_reuse(false);
    for (int i = 0; i < kVars; ++i) {
      with_reuse.new_var();
      without_reuse.new_var();
    }
    std::vector<std::vector<Lit>> clauses;
    std::vector<Lit> prefix;  // persistent shared assumption prefix
    for (int step = 0; step < kSteps; ++step) {
      const double dice = rng.below(100) / 100.0;
      if (dice < 0.35) {
        std::vector<Lit> clause;
        const std::size_t size = 1 + rng.below(4);
        for (std::size_t j = 0; j < size; ++j) {
          clause.push_back(random_lit(rng, kVars));
        }
        with_reuse.add_clause(clause);
        without_reuse.add_clause(clause);
        clauses.push_back(std::move(clause));
        continue;
      }
      if (dice < 0.5) {
        if (!prefix.empty() && rng.chance(0.5)) {
          prefix.pop_back();
        } else {
          prefix.push_back(random_lit(rng, kVars));
        }
      }
      std::vector<Lit> assumptions = prefix;
      const std::size_t tail = rng.below(3);
      for (std::size_t j = 0; j < tail; ++j) {
        assumptions.push_back(random_lit(rng, kVars));
      }
      const SolveResult r1 = with_reuse.solve(assumptions);
      const SolveResult r2 = without_reuse.solve(assumptions);
      ASSERT_EQ(r1, r2) << "seed " << seed << " step " << step
                        << ": reuse on/off verdicts diverge";
      ASSERT_NE(r1, SolveResult::kUnknown);
      if (r1 == SolveResult::kSat) {
        expect_model_valid(with_reuse, clauses, assumptions, "reuse-on");
        expect_model_valid(without_reuse, clauses, assumptions, "reuse-off");
      } else {
        expect_core_valid(with_reuse, kVars, clauses, assumptions,
                          "reuse-on");
        expect_core_valid(without_reuse, kVars, clauses, assumptions,
                          "reuse-off");
      }
    }
    // The reuse-on solver must actually have reused something over a
    // 200-step script with persistent prefixes.
    EXPECT_GT(with_reuse.stats().trail_reuse_hits, 0u) << "seed " << seed;
    EXPECT_EQ(without_reuse.stats().trail_reuse_hits, 0u);
  }
}

TEST(TrailReuse, PrefixReuseIsCountedAndSaves) {
  Solver s;
  const Var x = s.new_var();
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const Var a2 = s.new_var();
  // Each activation implies a chain literal, IC3-style.
  s.add_binary(neg(a0), pos(x));
  const std::vector<Lit> q1{pos(a2), pos(a1), pos(a0)};
  ASSERT_EQ(s.solve(q1), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 0u);  // first call: nothing kept
  // Same prefix, one more tail literal: the three assumption levels and
  // the propagation of x survive.
  const std::vector<Lit> q2{pos(a2), pos(a1), pos(a0), pos(x)};
  ASSERT_EQ(s.solve(q2), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 1u);
  EXPECT_GE(s.stats().reused_levels, 3u);
  EXPECT_GT(s.stats().saved_propagations, 0u);
}

TEST(TrailReuse, DivergingPrefixBacktracksOnlyToDivergence) {
  Solver s;
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const Var a2 = s.new_var();
  const std::vector<Lit> q1{pos(a0), pos(a1), pos(a2)};
  ASSERT_EQ(s.solve(q1), SolveResult::kSat);
  // First two assumptions match, third flips: exactly 2 levels reused.
  const std::vector<Lit> q2{pos(a0), pos(a1), neg(a2)};
  ASSERT_EQ(s.solve(q2), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 1u);
  EXPECT_EQ(s.stats().reused_levels, 2u);
}

TEST(TrailReuse, ClauseAdditionIntoKeptTrailStaysSound) {
  Solver s;
  const Var x = s.new_var();
  const Var z = s.new_var();
  const Var w = s.new_var();
  const Var a1 = s.new_var();
  s.add_binary(neg(a1), pos(x));  // a1 → x
  const std::vector<Lit> assume_a1{pos(a1)};
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(x)), l_True);

  // Attaches into the kept trail (two unassigned literals exist).
  ASSERT_TRUE(s.add_clause({neg(a1), pos(z), pos(w)}));
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(pos(z)) == l_True ||
              s.model_value(pos(w)) == l_True);

  // Conflicting under the kept trail (a1 true, x true): the solver must
  // fall back to the root and still answer correctly.
  ASSERT_TRUE(s.add_clause({neg(a1), neg(x)}));
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kUnsat);
  ASSERT_FALSE(s.core().empty());
  for (const Lit l : s.core()) EXPECT_EQ(l, pos(a1));
  // And without the poisoned activation everything is still satisfiable.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(TrailReuse, DisablingReuseDropsTheTrail) {
  Solver s;
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const std::vector<Lit> q{pos(a0), pos(a1)};
  ASSERT_EQ(s.solve(q), SolveResult::kSat);
  s.set_trail_reuse(false);
  ASSERT_EQ(s.solve(q), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 0u);
}

TEST(TrailReuse, UnsatCallsKeepTheFailedPrefixCheap) {
  Solver s;
  const Var x = s.new_var();
  const Var a0 = s.new_var();
  s.add_binary(neg(a0), pos(x));
  const std::vector<Lit> bad{pos(a0), neg(x)};
  ASSERT_EQ(s.solve(bad), SolveResult::kUnsat);
  // Repeating the refuted query must stay UNSAT (and may reuse levels).
  ASSERT_EQ(s.solve(bad), SolveResult::kUnsat);
  ASSERT_FALSE(s.core().empty());
  // A satisfiable sibling query still works afterwards.
  const std::vector<Lit> good{pos(a0), pos(x)};
  EXPECT_EQ(s.solve(good), SolveResult::kSat);
}

// ----- query-scoped temporary clauses ----------------------------------

TEST(TemporaryClause, DropKeepsTheActivationPrefixForTheNextQuery) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var z = s.new_var();
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  s.add_binary(neg(a0), pos(x));
  const std::size_t base_clauses = s.num_clauses();

  const Lit t1 = s.add_temporary(std::vector<Lit>{pos(y), pos(z)});
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(a1), pos(a0), t1}),
            SolveResult::kSat);
  EXPECT_TRUE(s.model_value(pos(y)) == l_True ||
              s.model_value(pos(z)) == l_True);
  s.drop_temporary();
  EXPECT_EQ(s.num_clauses(), base_clauses);
  EXPECT_EQ(s.stats().trail_reuse_hits, 0u);

  // Same activation prefix, a new temporary clause: the drop cut only the
  // temporary's level, so both prefix levels are reused.
  const Lit t2 = s.add_temporary(std::vector<Lit>{pos(y), neg(z)});
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(a1), pos(a0), t2, neg(y)}),
            SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(z)), l_False);
  s.drop_temporary();
  EXPECT_EQ(s.stats().trail_reuse_hits, 1u);
  EXPECT_EQ(s.stats().reused_levels, 2u);
}

TEST(TemporaryClause, DroppingAReasonOfTheKeptTrailKeepsAnswersCorrect) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var p1 = s.new_var();
  const Var p2 = s.new_var();
  s.add_binary(neg(x), pos(y));  // x → y
  // The temporary clause t → x propagates x at t's level; the answer keeps
  // that level (and p2's above it) on the trail.
  const Lit t = s.add_temporary(std::vector<Lit>{pos(x)});
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(p1), t, pos(p2)}), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(y)), l_True);
  s.drop_temporary();
  // x and y are free again.
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(p1), neg(y)}), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(x)), l_False);

  // A temporary clause that propagates ¬t on the kept prefix: the query is
  // refuted before t is assumed, and the drop cuts that level too.
  s.add_binary(neg(p1), pos(x));  // p1 → x
  const Lit u = s.add_temporary(std::vector<Lit>{neg(x)});
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(p1), u}), SolveResult::kUnsat);
  std::vector<Lit> core = s.core();
  std::sort(core.begin(), core.end());
  std::vector<Lit> want{pos(p1), u};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(core, want);
  s.drop_temporary();
  ASSERT_EQ(s.solve(std::vector<Lit>{pos(p1)}), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(y)), l_True);

  // A temporary clause that becomes the root reason of ¬v once a unit
  // arrives after it: the drop leaves ¬v a plain root fact.
  const Var w = s.new_var();
  const Lit v = s.add_temporary(std::vector<Lit>{neg(w)});
  ASSERT_TRUE(s.add_unit(pos(w)));
  ASSERT_EQ(s.solve(std::vector<Lit>{v}), SolveResult::kUnsat);
  EXPECT_EQ(s.core(), std::vector<Lit>{v});
  s.drop_temporary();
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(w)), l_True);
}

TEST(TemporaryClause, UnitTemporaryAllocatesNothingAndDropIsANoOp) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_binary(pos(x), pos(y));
  ASSERT_TRUE(s.add_unit(pos(x)));
  const std::size_t base_clauses = s.num_clauses();
  // ¬x is false at the root, so the clause normalizes to the unit ¬t.
  const Lit t = s.add_temporary(std::vector<Lit>{neg(x)});
  EXPECT_EQ(s.num_clauses(), base_clauses);
  ASSERT_EQ(s.solve(std::vector<Lit>{t}), SolveResult::kUnsat);
  EXPECT_EQ(s.core(), std::vector<Lit>{t});
  s.drop_temporary();
  EXPECT_EQ(s.num_clauses(), base_clauses);
  ASSERT_EQ(s.solve(std::vector<Lit>{neg(y)}), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(x)), l_True);
}

TEST(TemporaryClause, DropAfterBudgetedUnknownLeavesTheSolverUsable) {
  // Pigeonhole 6 → 5: the temporary clause is pigeon 0's "sits somewhere"
  // clause, without which the formula is satisfiable.
  constexpr int kPigeons = 6;
  constexpr int kHoles = 5;
  Solver s;
  Var sits[kPigeons][kHoles];
  for (auto& row : sits) {
    for (Var& v : row) v = s.new_var();
  }
  for (int p = 1; p < kPigeons; ++p) {
    std::vector<Lit> somewhere;
    for (int h = 0; h < kHoles; ++h) somewhere.push_back(pos(sits[p][h]));
    s.add_clause(somewhere);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p = 0; p < kPigeons; ++p) {
      for (int q = p + 1; q < kPigeons; ++q) {
        s.add_binary(neg(sits[p][h]), neg(sits[q][h]));
      }
    }
  }
  std::vector<Lit> pigeon0;
  for (int h = 0; h < kHoles; ++h) pigeon0.push_back(pos(sits[0][h]));
  const std::size_t base_clauses = s.num_clauses();

  s.set_conflict_budget(1);
  const Lit t = s.add_temporary(pigeon0);
  ASSERT_EQ(s.solve(std::vector<Lit>{t}), SolveResult::kUnknown);
  s.drop_temporary();
  EXPECT_EQ(s.num_clauses(), base_clauses);

  s.set_conflict_budget(0);
  const Lit u = s.add_temporary(pigeon0);
  EXPECT_EQ(s.solve(std::vector<Lit>{u}), SolveResult::kUnsat);
  s.drop_temporary();
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  for (int h = 0; h < kHoles; ++h) {
    EXPECT_EQ(s.model_value(pos(sits[0][h])), l_False);
  }
}

TEST(SolverStats, BinaryPropagationsAreCountedSeparately) {
  Solver s;
  constexpr int kChain = 64;
  std::vector<Var> vars;
  for (int i = 0; i < kChain; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < kChain; ++i) {
    s.add_binary(neg(vars[i]), pos(vars[i + 1]));
  }
  const std::vector<Lit> assume{pos(vars[0])};
  ASSERT_EQ(s.solve(assume), SolveResult::kSat);
  // The whole chain is binary: all implications ride the binary watches.
  EXPECT_GE(s.stats().binary_propagations,
            static_cast<std::uint64_t>(kChain - 1));
}

}  // namespace
}  // namespace pilot::sat

namespace pilot::ic3 {
namespace {

struct EngineRun {
  Verdict verdict = Verdict::kUnknown;
  std::uint64_t lemmas = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_reuse_hits = 0;
  std::uint64_t sat_saved_propagations = 0;
};

EngineRun run_engine(const ts::TransitionSystem& ts, bool trail_reuse) {
  Config cfg;
  cfg.gen_spec = "predict";
  cfg.sat_trail_reuse = trail_reuse;
  Engine engine(ts, cfg);
  const Result r = engine.check();
  EngineRun out;
  out.verdict = r.verdict;
  out.lemmas = r.stats.num_lemmas;
  out.sat_propagations = r.stats.sat_propagations;
  out.sat_reuse_hits = r.stats.sat_trail_reuse_hits;
  out.sat_saved_propagations = r.stats.sat_saved_propagations;
  return out;
}

// Engine-level determinism and reuse-equivalence over the checked-in
// fixture corpus: verdicts must match the manifest's expected status with
// trail reuse on and off, and repeated runs of the same configuration must
// produce identical lemma counts.
TEST(EngineTrailReuse, CorpusVerdictsAndLemmaCountsAreStable) {
  const std::vector<corpus::Case> cases =
      corpus::resolve_corpus(PILOT_TEST_CORPUS_DIR);
  ASSERT_FALSE(cases.empty());
  std::uint64_t total_reuse_hits = 0;
  std::uint64_t total_saved = 0;
  for (const corpus::Case& c : cases) {
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(c.load());
    const EngineRun on1 = run_engine(ts, /*trail_reuse=*/true);
    const EngineRun on2 = run_engine(ts, /*trail_reuse=*/true);
    const EngineRun off1 = run_engine(ts, /*trail_reuse=*/false);
    const EngineRun off2 = run_engine(ts, /*trail_reuse=*/false);

    if (c.expected == corpus::Expected::kSafe) {
      EXPECT_EQ(on1.verdict, Verdict::kSafe) << c.name;
    } else if (c.expected == corpus::Expected::kUnsafe) {
      EXPECT_EQ(on1.verdict, Verdict::kUnsafe) << c.name;
    }
    EXPECT_EQ(on1.verdict, off1.verdict) << c.name;

    // Same configuration twice → bit-identical proof structure.
    EXPECT_EQ(on1.verdict, on2.verdict) << c.name;
    EXPECT_EQ(on1.lemmas, on2.lemmas) << c.name;
    EXPECT_EQ(on1.sat_propagations, on2.sat_propagations) << c.name;
    EXPECT_EQ(off1.verdict, off2.verdict) << c.name;
    EXPECT_EQ(off1.lemmas, off2.lemmas) << c.name;

    EXPECT_EQ(off1.sat_reuse_hits, 0u) << c.name;
    total_reuse_hits += on1.sat_reuse_hits;
    total_saved += on1.sat_saved_propagations;
  }
  // Across the corpus the reuse path must actually fire and save work.
  EXPECT_GT(total_reuse_hits, 0u);
  EXPECT_GT(total_saved, 0u);
}

}  // namespace
}  // namespace pilot::ic3
