/// Engine tests: verdicts across all families and generalization modes
/// (parameterized), witness production, statistics plausibility, deadline
/// handling, and configuration knobs.
#include <gtest/gtest.h>

#include <thread>

#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

Result run(const circuits::CircuitCase& cc, Config cfg = {},
           Deadline deadline = {}) {
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, cfg);
  return engine.check(deadline);
}

/// One generalization spec per paper configuration (RIC3, RIC3-pl,
/// IC3ref, IC3ref-pl) plus the CAV'23 ordering.
struct ModeParam {
  const char* gen_spec;
  const char* name;
};

class EngineAllModes : public ::testing::TestWithParam<ModeParam> {
 protected:
  Config config() const {
    Config cfg;
    cfg.gen_spec = GetParam().gen_spec;
    return cfg;
  }
};

TEST_P(EngineAllModes, SafeCounterProvedWithCertificate) {
  const auto cc = circuits::counter_wrap_safe(5, 16, 30);
  const Result r = run(cc, config());
  ASSERT_EQ(r.verdict, Verdict::kSafe);
  ASSERT_TRUE(r.invariant.has_value());
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  EXPECT_TRUE(cert::check(ts, cert::from_invariant(ts, *r.invariant)).ok);
}

TEST_P(EngineAllModes, UnsafeCounterFoundWithTrace) {
  const auto cc = circuits::counter_unsafe(5, 13);
  const Result r = run(cc, config());
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  ASSERT_TRUE(r.trace.has_value());
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *r.trace)).ok);
}

TEST_P(EngineAllModes, TokenRingInvariant) {
  const Result r = run(circuits::token_ring_safe(7), config());
  EXPECT_EQ(r.verdict, Verdict::kSafe);
}

TEST_P(EngineAllModes, MutexVerdicts) {
  EXPECT_EQ(run(circuits::mutex_safe(), config()).verdict, Verdict::kSafe);
  EXPECT_EQ(run(circuits::mutex_unsafe(), config()).verdict,
            Verdict::kUnsafe);
}

TEST_P(EngineAllModes, ConstraintHandling) {
  // Constrained shift register is safe; unconstrained is unsafe.
  EXPECT_EQ(run(circuits::shift_register(6, true), config()).verdict,
            Verdict::kSafe);
  EXPECT_EQ(run(circuits::shift_register(6, false), config()).verdict,
            Verdict::kUnsafe);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineAllModes,
    ::testing::Values(ModeParam{"down", "down"},
                      ModeParam{"predict:down", "down_pl"},
                      ModeParam{"ctg", "ctg"},
                      ModeParam{"predict:ctg", "ctg_pl"},
                      ModeParam{"cav23", "cav23"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Engine, ZeroStepCounterexample) {
  // bad = (count == 0) with count init 0: violated in the initial state.
  const auto cc = circuits::counter_unsafe(4, 0);
  const Result r = run(cc);
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->length(), 1u);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *r.trace)).ok);
}

TEST(Engine, CombinationalCircuitSafeAndUnsafe) {
  // No latches at all: bad is a pure function of the inputs.
  aig::Aig safe_aig;
  {
    const aig::AigLit x = safe_aig.add_input();
    safe_aig.add_bad(safe_aig.make_and(x, !x));  // constant false
  }
  EXPECT_EQ(run({"comb_safe", "comb", std::move(safe_aig), true, -1}).verdict,
            Verdict::kSafe);

  aig::Aig unsafe_aig;
  {
    const aig::AigLit x = unsafe_aig.add_input();
    const aig::AigLit y = unsafe_aig.add_input();
    unsafe_aig.add_bad(unsafe_aig.make_and(x, y));
  }
  const Result r =
      run({"comb_unsafe", "comb", std::move(unsafe_aig), false, 0});
  EXPECT_EQ(r.verdict, Verdict::kUnsafe);
}

TEST(Engine, DeadlineProducesUnknown) {
  // A parity ring is intentionally hard; a tiny deadline must time out
  // cleanly (not crash, not mis-answer).
  const auto cc = circuits::ring_parity_safe(14);
  const Result r = run(cc, Config{}, Deadline::in_milliseconds(1));
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
}

TEST(Engine, NoObligationStateSurvivesAnyVerdict) {
  // pending_obligations() must be 0 after every check(), including UNSAFE
  // runs whose counterexample chase leaves re-enqueued obligations behind.
  {
    const auto cc = circuits::counter_unsafe(6, 10);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    Engine engine(ts, {});
    EXPECT_EQ(engine.check().verdict, Verdict::kUnsafe);
    EXPECT_EQ(engine.pending_obligations(), 0u);
  }
  {
    const auto cc = circuits::token_ring_safe(5);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    Engine engine(ts, {});
    EXPECT_EQ(engine.check().verdict, Verdict::kSafe);
    EXPECT_EQ(engine.pending_obligations(), 0u);
  }
}

TEST(Engine, PreCancelledRunReportsUnknownCleanly) {
  // A stop requested before check() starts must yield UNKNOWN without any
  // certificate and without dangling proof state.
  const auto cc = circuits::counter_wrap_safe(12, 1024, 2048);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  CancelToken cancel;
  cancel.request_stop();
  const Result r = engine.check({}, &cancel);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_FALSE(r.invariant.has_value());
  EXPECT_EQ(engine.pending_obligations(), 0u);
}

TEST(Engine, CancellationMidRunLeavesNoDanglingObligations) {
  // This instance needs several seconds unconstrained; a stop request a few
  // milliseconds in must abort it with UNKNOWN, the partial statistics, and
  // an empty obligation queue — the contract the portfolio relies on.
  const auto cc = circuits::counter_wrap_safe(12, 1024, 2048);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  CancelToken cancel;
  std::thread stopper([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.request_stop();
  });
  const Result r = engine.check({}, &cancel);
  stopper.join();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_FALSE(r.invariant.has_value());
  EXPECT_EQ(engine.pending_obligations(), 0u);
  // Partial statistics from the aborted run are still reported.  (No
  // assertion on obligation counts: how far the engine got in 30 ms is
  // scheduler- and sanitizer-dependent.)
  EXPECT_GT(r.stats.time_total, 0.0);
}

TEST(Engine, PredictionStatisticsAreConsistent) {
  Config cfg;
  cfg.gen_spec = "predict:down";
  const Result r = run(circuits::counter_wrap_safe(6, 32, 60), cfg);
  ASSERT_EQ(r.verdict, Verdict::kSafe);
  const Ic3Stats& s = r.stats;
  EXPECT_LE(s.num_successful_predictions, s.num_prediction_queries);
  EXPECT_LE(s.num_found_failed_parents, s.num_generalizations);
  EXPECT_LE(s.num_successful_predictions, s.num_generalizations);
  EXPECT_GE(s.sr_lp(), 0.0);
  EXPECT_LE(s.sr_lp(), 1.0);
  EXPECT_LE(s.sr_adv(), s.sr_fp() + 1e-9)
      << "a successful prediction requires a found parent";
}

TEST(Engine, NoPredictionStatsWhenDisabled) {
  Config cfg;
  cfg.gen_spec = "ctg";
  const Result r = run(circuits::counter_wrap_safe(5, 16, 30), cfg);
  EXPECT_EQ(r.stats.num_prediction_queries, 0u);
  EXPECT_EQ(r.stats.num_successful_predictions, 0u);
  EXPECT_EQ(r.stats.num_found_failed_parents, 0u);
}

TEST(Engine, LiftedTracesStaySound) {
  const auto cc = circuits::fifo_unsafe(4, 9);
  const Result r = run(cc);
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *r.trace)).ok);

  const Result rs = run(circuits::token_ring_safe(5));
  EXPECT_EQ(rs.verdict, Verdict::kSafe);
}

/// Every built-in generalization recipe.
struct RebuildParam {
  const char* gen_spec;
  const char* name;
};

class EngineFrequentRebuilds : public ::testing::TestWithParam<RebuildParam> {
 protected:
  /// Runs `cc` rebuilding the main solver constantly, and checks the
  /// verdict and its certificate.
  void expect_certified(const circuits::CircuitCase& cc, Verdict expected) {
    Config cfg;
    cfg.gen_spec = GetParam().gen_spec;
    cfg.rebuild_tmp_threshold = 8;
    const Result r = run(cc, cfg);
    ASSERT_EQ(r.verdict, expected);
    EXPECT_GE(r.stats.num_solver_rebuilds, 1u);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    if (expected == Verdict::kSafe) {
      ASSERT_TRUE(r.invariant.has_value());
      EXPECT_TRUE(cert::check(ts, cert::from_invariant(ts, *r.invariant)).ok);
    } else {
      ASSERT_TRUE(r.trace.has_value());
      EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *r.trace)).ok);
    }
  }
};

TEST_P(EngineFrequentRebuilds, SafeProofStaysCertified) {
  expect_certified(circuits::counter_wrap_safe(5, 16, 30), Verdict::kSafe);
}

TEST_P(EngineFrequentRebuilds, UnsafeTraceStaysCertified) {
  expect_certified(circuits::fifo_unsafe(4, 9), Verdict::kUnsafe);
}

INSTANTIATE_TEST_SUITE_P(
    AllRecipes, EngineFrequentRebuilds,
    ::testing::Values(
        RebuildParam{"down", "down"},
        RebuildParam{"ctg", "ctg"},
        RebuildParam{"cav23", "cav23"},
        RebuildParam{"predict:down", "predict_down"},
        RebuildParam{"predict:ctg", "predict_ctg"},
        RebuildParam{"dynamic", "dynamic"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Engine, UnsafeTraceEndsInBadAndStartsInInit) {
  const auto cc = circuits::combination_lock_unsafe(3, {1, 5, 2, 7});
  const Result r = run(cc);
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  ASSERT_TRUE(r.trace.has_value());
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  EXPECT_TRUE(ts.cube_intersects_init(r.trace->states.front().lits()));
  EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *r.trace)).ok);
  // The lock needs exactly 4 correct digits: trace has ≥ 5 states... the
  // bad is observed on the state where progress==4, reached after 4 steps.
  EXPECT_GE(r.trace->length(), 4u);
}

TEST(Engine, DeterministicAcrossRuns) {
  // With an unlimited deadline the engine has no timing-dependent
  // branches: two runs with the same seed must take identical search paths
  // (a canary for accidental nondeterminism, e.g. hash-order iteration).
  auto fingerprint = [](const circuits::CircuitCase& cc) {
    Config cfg;
    cfg.gen_spec = "predict";
    cfg.seed = 42;
    const Result r = run(cc, cfg);
    return std::tuple{r.verdict, r.stats.num_lemmas,
                      r.stats.num_obligations, r.stats.num_ctis,
                      r.stats.num_generalizations,
                      r.stats.num_prediction_queries};
  };
  const auto cc1 = circuits::counter_wrap_safe(6, 32, 60);
  EXPECT_EQ(fingerprint(cc1), fingerprint(cc1));
  const auto cc2 = circuits::fifo_unsafe(4, 9);
  EXPECT_EQ(fingerprint(cc2), fingerprint(cc2));
}

TEST(Engine, CachedCtpsSkipPushSolvesAndStaySound) {
  // A failed push keeps its CTP; while the CTP's predecessor still lies in
  // the frame, the next propagation pass skips that push's solve.  Debug
  // builds re-issue every skipped push and assert that it fails.
  for (const bool predict : {false, true}) {  // ic3-down, ic3-down-pl
    Config cfg;
    cfg.gen_spec = predict ? "predict:down" : "down";
    const auto cc = circuits::token_ring_safe(6);
    const Result r = run(cc, cfg);
    ASSERT_EQ(r.verdict, Verdict::kSafe) << predict;
    const Ic3Stats& s = r.stats;
    EXPECT_GT(s.num_push_skipped_by_ctp, 0u) << predict;
    EXPECT_LE(s.num_push_skipped_by_ctp, s.num_push_ctp_revalidations);
    EXPECT_LE(s.num_push_successes, s.num_push_queries);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    EXPECT_TRUE(cert::check(ts, cert::from_invariant(ts, *r.invariant)).ok)
        << predict;
  }
}

TEST(Engine, InvariantUsesOnlyStateVariables) {
  const Result r = run(circuits::twin_counters_safe(5));
  ASSERT_EQ(r.verdict, Verdict::kSafe);
  const ts::TransitionSystem ts =
      ts::TransitionSystem::from_aig(circuits::twin_counters_safe(5).aig);
  for (const Cube& c : r.invariant->lemma_cubes) {
    for (const Lit l : c) {
      EXPECT_TRUE(ts.is_state_var(l.var()));
    }
  }
}

}  // namespace
}  // namespace pilot::ic3
