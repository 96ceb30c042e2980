/// Strategy-registry tests: built-in registration, spec validation with
/// actionable error messages, custom strategy plug-in, and the "dynamic"
/// meta-strategy's switching policy driven by a scripted success-rate
/// trace (the SuYC25 behaviour the ISSUE pins down: switch points must be
/// a deterministic function of the observed outcomes).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ic3/gen_dynamic.hpp"
#include "ic3/gen_strategy.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

/// A minimal live context over a real (small) transition system; the
/// policy tests never issue SAT queries, but the context references must
/// point at real objects.
struct CtxFixture {
  CtxFixture() : cc(circuits::token_ring_safe(4)),
                 ts(ts::TransitionSystem::from_aig(cc.aig)),
                 solvers(ts, cfg, stats) {
    solvers.ensure_level(1);
    frames.ensure_level(1);
  }

  [[nodiscard]] GenContext ctx() {
    return GenContext{ts, solvers, frames, cfg, stats};
  }

  circuits::CircuitCase cc;
  ts::TransitionSystem ts;
  Config cfg;
  Ic3Stats stats;
  Frames frames;
  SolverManager solvers;
};

TEST(GenRegistry, BuiltinsAreRegistered) {
  for (const char* name : {"down", "ctg", "cav23", "predict", "dynamic"}) {
    EXPECT_TRUE(gen_strategy_registered(name)) << name;
  }
  EXPECT_FALSE(gen_strategy_registered("nope"));
  const std::vector<std::string> names = gen_strategy_names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(GenRegistry, UnknownNameErrorListsRegisteredStrategies) {
  try {
    validate_gen_spec("no-such-strategy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // The offending token and the full registered list must both appear.
    EXPECT_NE(msg.find("no-such-strategy"), std::string::npos) << msg;
    for (const std::string& name : gen_strategy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in " << msg;
    }
  }
}

TEST(GenRegistry, SpecArgsAreValidated) {
  EXPECT_NO_THROW(validate_gen_spec("dynamic"));
  EXPECT_NO_THROW(validate_gen_spec("dynamic:8"));
  EXPECT_NO_THROW(validate_gen_spec("dynamic:8,0.5"));
  EXPECT_NO_THROW(validate_gen_spec("dynamic:,0.5"));
  EXPECT_THROW(validate_gen_spec("dynamic:abc"), std::invalid_argument);
  EXPECT_THROW(validate_gen_spec("dynamic:0"), std::invalid_argument);
  EXPECT_THROW(validate_gen_spec("dynamic:8,1.5"), std::invalid_argument);
  EXPECT_THROW(validate_gen_spec("dynamic:9999"), std::invalid_argument);
  // Fixed strategies take no args.
  EXPECT_THROW(validate_gen_spec("ctg:3"), std::invalid_argument);
  EXPECT_NO_THROW(validate_gen_spec("ctg"));
}

TEST(GenRegistry, ParseDynamicArgs) {
  EXPECT_FALSE(parse_dynamic_args("").window.has_value());
  EXPECT_EQ(parse_dynamic_args("8").window.value(), 8u);
  EXPECT_FALSE(parse_dynamic_args("8").threshold.has_value());
  const DynamicArgs full = parse_dynamic_args("12,0.75");
  EXPECT_EQ(full.window.value(), 12u);
  EXPECT_DOUBLE_EQ(full.threshold.value(), 0.75);
}

TEST(GenRegistry, CustomStrategyPlugsIn) {
  class EchoStrategy final : public GenStrategy {
   public:
    [[nodiscard]] const std::string& name() const override {
      static const std::string kName = "echo-test";
      return kName;
    }
    Cube generalize(const Cube& cube, const Cube& core, std::size_t,
                    const Deadline&, const AddLemmaFn&) override {
      (void)cube;
      return core;  // no generalization at all — still sound
    }
  };
  static bool registered = false;
  if (!registered) {
    register_gen_strategy("echo-test",
                          [](const GenContext&, const std::string&) {
                            return std::make_unique<EchoStrategy>();
                          });
    registered = true;
  }
  EXPECT_TRUE(gen_strategy_registered("echo-test"));
  EXPECT_THROW(register_gen_strategy("echo-test",
                                     [](const GenContext&,
                                        const std::string&) {
                                       return std::unique_ptr<GenStrategy>();
                                     }),
               std::invalid_argument);
  CtxFixture f;
  const std::unique_ptr<GenStrategy> s =
      make_gen_strategy("echo-test", f.ctx());
  EXPECT_EQ(s->name(), "echo-test");
}

// ----- sliding-window statistics ---------------------------------------------

TEST(GenStrategyStatsTest, WindowTracksNewestOutcomes) {
  GenStrategyStats s;
  s.name = "t";
  for (int i = 0; i < 10; ++i) s.record(false, 2, 0);
  EXPECT_DOUBLE_EQ(s.window_success_rate(10), 0.0);
  for (int i = 0; i < 10; ++i) s.record(true, 1, 3);
  // Newest 10 are all successes; newest 20 are half.
  EXPECT_DOUBLE_EQ(s.window_success_rate(10), 1.0);
  EXPECT_DOUBLE_EQ(s.window_success_rate(20), 0.5);
  EXPECT_DOUBLE_EQ(s.window_avg_queries(10), 1.0);
  EXPECT_EQ(s.attempts, 20u);
  EXPECT_EQ(s.successes, 10u);
  EXPECT_DOUBLE_EQ(s.avg_dropped(), 1.5);
}

TEST(GenStrategyStatsTest, RingWrapsAtCapacity) {
  GenStrategyStats s;
  s.name = "t";
  for (std::size_t i = 0; i < GenStrategyStats::kGenWindowCapacity; ++i) {
    s.record(false, 1, 0);
  }
  EXPECT_EQ(s.window_size(), GenStrategyStats::kGenWindowCapacity);
  // Overwrite the whole ring with successes.
  for (std::size_t i = 0; i < GenStrategyStats::kGenWindowCapacity; ++i) {
    s.record(true, 1, 1);
  }
  EXPECT_EQ(s.window_size(), GenStrategyStats::kGenWindowCapacity);
  EXPECT_DOUBLE_EQ(
      s.window_success_rate(GenStrategyStats::kGenWindowCapacity), 1.0);
  EXPECT_EQ(s.attempts, 2 * GenStrategyStats::kGenWindowCapacity);
}

// ----- the dynamic switching policy ------------------------------------------

/// Scripted success-rate trace: drive the windows directly (no SAT) and
/// assert the exact switch points.
TEST(DynamicStrategyPolicy, SwitchesAwayFromFailingStrategyAtBoundary) {
  CtxFixture f;
  DynamicStrategy dyn(f.ctx(), "4,0.5");
  EXPECT_EQ(dyn.window(), 4u);
  EXPECT_DOUBLE_EQ(dyn.threshold(), 0.5);
  ASSERT_EQ(dyn.candidate_names(),
            (std::vector<std::string>{"predict", "ctg", "cav23", "down"}));
  EXPECT_EQ(dyn.active_name(), "predict");

  // Fewer than `window` fresh samples: never judged, never switched.
  f.stats.record_gen_outcome("predict", false, 3, 0);
  f.stats.record_gen_outcome("predict", false, 3, 0);
  f.stats.record_gen_outcome("predict", false, 3, 0);
  EXPECT_FALSE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), "predict");

  // Fourth failure completes the window below threshold → switch to the
  // next unexplored candidate in rotation order ("ctg").
  f.stats.record_gen_outcome("predict", false, 3, 0);
  EXPECT_TRUE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), "ctg");
  EXPECT_EQ(f.stats.num_strategy_switches, 1u);
  EXPECT_EQ(f.stats.find_gen_strategy("predict")->switches, 1u);

  // A healthy window keeps the strategy: 3/4 successes ≥ 0.5.
  f.stats.record_gen_outcome("ctg", true, 2, 2);
  f.stats.record_gen_outcome("ctg", true, 2, 2);
  f.stats.record_gen_outcome("ctg", false, 5, 0);
  f.stats.record_gen_outcome("ctg", true, 2, 1);
  EXPECT_FALSE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), "ctg");

  // Four fresh failures push the windowed rate (newest 4) below 0.5 →
  // next unexplored candidate is "cav23".
  for (int i = 0; i < 4; ++i) f.stats.record_gen_outcome("ctg", false, 6, 0);
  EXPECT_TRUE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), "cav23");
  EXPECT_EQ(f.stats.num_strategy_switches, 2u);
}

TEST(DynamicStrategyPolicy, ExhaustedExplorationPicksBestWindowedRate) {
  CtxFixture f;
  DynamicStrategy dyn(f.ctx(), "2,0.5");
  // Mark every candidate as explored with distinct windowed rates.
  f.stats.record_gen_outcome("ctg", false, 1, 0);
  f.stats.record_gen_outcome("ctg", true, 1, 1);   // rate 0.5
  f.stats.record_gen_outcome("cav23", true, 1, 1);
  f.stats.record_gen_outcome("cav23", true, 1, 1); // rate 1.0 — the best
  f.stats.record_gen_outcome("down", false, 1, 0);
  f.stats.record_gen_outcome("down", false, 1, 0); // rate 0.0
  // Active ("predict") fails its window → must switch to "cav23".
  f.stats.record_gen_outcome("predict", false, 1, 0);
  f.stats.record_gen_outcome("predict", false, 1, 0);
  EXPECT_TRUE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), "cav23");
}

TEST(DynamicStrategyPolicy, FreshSampleGateBlocksImmediateReswitch) {
  CtxFixture f;
  DynamicStrategy dyn(f.ctx(), "2,0.5");
  // Poison every candidate's window, then trigger the first switch.
  for (const std::string& name : dyn.candidate_names()) {
    f.stats.record_gen_outcome(name, false, 1, 0);
    f.stats.record_gen_outcome(name, false, 1, 0);
  }
  EXPECT_TRUE(dyn.evaluate_switch());
  const std::string second = dyn.active_name();
  EXPECT_NE(second, "predict");
  // Without fresh samples for the new active strategy, the policy must
  // hold — its stale all-failure window alone cannot re-trigger.
  EXPECT_FALSE(dyn.evaluate_switch());
  EXPECT_EQ(dyn.active_name(), second);
}

TEST(DynamicStrategyPolicy, SpecArgsOverrideTheDefaults) {
  CtxFixture f;
  const DynamicStrategy bare(f.ctx(), "");
  EXPECT_EQ(bare.window(), 16u);
  EXPECT_DOUBLE_EQ(bare.threshold(), 0.4);
  const DynamicStrategy window_only(f.ctx(), "8");
  EXPECT_EQ(window_only.window(), 8u);
  EXPECT_DOUBLE_EQ(window_only.threshold(), 0.4);
  const DynamicStrategy both(f.ctx(), "3,0.9");
  EXPECT_EQ(both.window(), 3u);
  EXPECT_DOUBLE_EQ(both.threshold(), 0.9);
}

// ----- end-to-end: the dynamic strategy inside the engine --------------------

TEST(DynamicStrategyEngine, SolvesBothVerdictClasses) {
  Config cfg;
  cfg.gen_spec = "dynamic:4,0.5";
  {
    const auto cc = circuits::token_ring_safe(5);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    Engine engine(ts, cfg);
    const Result r = engine.check(Deadline::in_seconds(60));
    EXPECT_EQ(r.verdict, Verdict::kSafe);
    // Per-strategy accounting reached the stats: some strategy attempted
    // generalizations and the totals match N_g.
    std::uint64_t attempts = 0;
    for (const GenStrategyStats& s : r.stats.gen_strategies) {
      attempts += s.attempts;
    }
    EXPECT_EQ(attempts, r.stats.num_generalizations);
  }
  {
    const auto cc = circuits::counter_unsafe(4, 6);
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    Engine engine(ts, cfg);
    const Result r = engine.check(Deadline::in_seconds(60));
    EXPECT_EQ(r.verdict, Verdict::kUnsafe);
  }
}

TEST(DynamicStrategyEngine, UnknownSpecThrowsAtConstruction) {
  const auto cc = circuits::mutex_safe();
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Config cfg;
  cfg.gen_spec = "no-such-strategy";
  EXPECT_THROW(Engine(ts, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pilot::ic3
