/// Gen-spec and dynamic-policy tests: the five strategy names, spec
/// validation with actionable error messages, and the "dynamic" recipe's
/// switching policy driven by a scripted success-rate trace (switch points
/// must be a deterministic function of the observed outcomes), then inside
/// a real engine run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ic3/generalizer.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

Config config_for(const std::string& gen_spec) {
  Config cfg;
  cfg.gen_spec = gen_spec;
  return cfg;
}

/// A Generalizer over a real (small) transition system; the policy tests
/// never issue SAT queries, they drive the Ic3Stats windows directly.
struct PolicyFixture {
  explicit PolicyFixture(const std::string& gen_spec)
      : cc(circuits::token_ring_safe(4)),
        ts(ts::TransitionSystem::from_aig(cc.aig)),
        cfg(config_for(gen_spec)),
        solvers(ts, cfg, stats),
        gen(ts, solvers, frames, cfg, stats) {}

  circuits::CircuitCase cc;
  ts::TransitionSystem ts;
  Config cfg;
  Ic3Stats stats;
  Frames frames;
  SolverManager solvers;
  Generalizer gen;
};

TEST(GenSpec, NamesAreTheFiveBuiltins) {
  EXPECT_EQ(gen_strategy_names(),
            (std::vector<std::string>{"cav23", "ctg", "down", "dynamic",
                                      "predict"}));
  for (const std::string& name : gen_strategy_names()) {
    EXPECT_NO_THROW(validate_gen_spec(name)) << name;
  }
  EXPECT_THROW(validate_gen_spec("nope"), std::invalid_argument);
}

TEST(GenSpec, UnknownNameErrorListsTheStrategies) {
  try {
    validate_gen_spec("no-such-strategy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // The offending token and the full name list must both appear.
    EXPECT_NE(msg.find("no-such-strategy"), std::string::npos) << msg;
    for (const std::string& name : gen_strategy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in " << msg;
    }
  }
}

TEST(GenSpec, SpecArgsAreValidated) {
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
  // One spelling per recipe: a ':' needs something after it.
  for (const char* spec : {"ctg:", "predict:", "dynamic:"}) {
    EXPECT_THROW(validate_gen_spec(spec), std::invalid_argument) << spec;
  }
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
  PolicyFixture f("dynamic:4,0.5");
  EXPECT_EQ(f.gen.active_name(), "predict");

  // Fewer than `window` fresh samples: never judged, never switched.
  f.stats.record_gen_outcome("predict", false, 3, 0);
  f.stats.record_gen_outcome("predict", false, 3, 0);
  f.stats.record_gen_outcome("predict", false, 3, 0);
  EXPECT_FALSE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "predict");

  // Fourth failure completes the window below threshold → switch to the
  // next unexplored recipe in rotation order ("ctg").
  f.stats.record_gen_outcome("predict", false, 3, 0);
  EXPECT_TRUE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "ctg");
  EXPECT_EQ(f.stats.num_strategy_switches, 1u);
  EXPECT_EQ(f.stats.find_gen_strategy("predict")->switches, 1u);

  // A healthy window keeps the recipe: 3/4 successes ≥ 0.5.
  f.stats.record_gen_outcome("ctg", true, 2, 2);
  f.stats.record_gen_outcome("ctg", true, 2, 2);
  f.stats.record_gen_outcome("ctg", false, 5, 0);
  f.stats.record_gen_outcome("ctg", true, 2, 1);
  EXPECT_FALSE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "ctg");

  // Four fresh failures push the windowed rate (newest 4) below 0.5 →
  // next unexplored recipe is "cav23", then "down".
  for (int i = 0; i < 4; ++i) f.stats.record_gen_outcome("ctg", false, 6, 0);
  EXPECT_TRUE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "cav23");
  EXPECT_EQ(f.stats.num_strategy_switches, 2u);
  for (int i = 0; i < 4; ++i) {
    f.stats.record_gen_outcome("cav23", false, 6, 0);
  }
  EXPECT_TRUE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "down");
}

TEST(DynamicStrategyPolicy, ExhaustedExplorationPicksBestWindowedRate) {
  PolicyFixture f("dynamic:2,0.5");
  // Mark every recipe as explored with distinct windowed rates.
  f.stats.record_gen_outcome("ctg", false, 1, 0);
  f.stats.record_gen_outcome("ctg", true, 1, 1);   // rate 0.5
  f.stats.record_gen_outcome("cav23", true, 1, 1);
  f.stats.record_gen_outcome("cav23", true, 1, 1); // rate 1.0 — the best
  f.stats.record_gen_outcome("down", false, 1, 0);
  f.stats.record_gen_outcome("down", false, 1, 0); // rate 0.0
  // Active ("predict") fails its window → must switch to "cav23".
  f.stats.record_gen_outcome("predict", false, 1, 0);
  f.stats.record_gen_outcome("predict", false, 1, 0);
  EXPECT_TRUE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), "cav23");
}

TEST(DynamicStrategyPolicy, FreshSampleGateBlocksImmediateReswitch) {
  PolicyFixture f("dynamic:2,0.5");
  // Poison every recipe's window, then trigger the first switch.
  for (const char* name : {"predict", "ctg", "cav23", "down"}) {
    f.stats.record_gen_outcome(name, false, 1, 0);
    f.stats.record_gen_outcome(name, false, 1, 0);
  }
  EXPECT_TRUE(f.gen.evaluate_switch());
  const std::string second = f.gen.active_name();
  EXPECT_NE(second, "predict");
  // Without fresh samples for the new active recipe, the policy must
  // hold — its stale all-failure window alone cannot re-trigger.
  EXPECT_FALSE(f.gen.evaluate_switch());
  EXPECT_EQ(f.gen.active_name(), second);
}

TEST(DynamicStrategyPolicy, FixedSpecsNeverSwitch) {
  for (const char* spec : {"down", "ctg", "cav23", "predict:down"}) {
    PolicyFixture f(spec);
    // A propagation boundary adds no gen[...] row: the --stats line lists
    // only strategies that generalized.
    f.gen.on_propagate();
    EXPECT_TRUE(f.stats.gen_strategies.empty()) << spec;
    const std::string name = f.gen.active_name();
    for (int i = 0; i < 64; ++i) f.stats.record_gen_outcome(name, false, 1, 0);
    EXPECT_FALSE(f.gen.evaluate_switch()) << spec;
    EXPECT_EQ(f.gen.active_name(), name) << spec;
    EXPECT_EQ(f.stats.num_strategy_switches, 0u) << spec;
  }
}

/// The failures in a row after which a fresh `spec` generalizer leaves
/// predict: its window.
std::size_t failures_until_switch(const std::string& spec) {
  PolicyFixture f(spec);
  for (std::size_t n = 1; n <= GenStrategyStats::kGenWindowCapacity; ++n) {
    f.stats.record_gen_outcome("predict", false, 1, 0);
    if (f.gen.evaluate_switch()) return n;
  }
  return 0;
}

/// Whether a fresh `spec` generalizer leaves predict after `successes`
/// successes and then failures up to `window` outcomes.
bool leaves_predict(const std::string& spec, std::size_t window,
                    std::size_t successes) {
  PolicyFixture f(spec);
  for (std::size_t i = 0; i < window; ++i) {
    f.stats.record_gen_outcome("predict", i < successes, 1, 0);
  }
  return f.gen.evaluate_switch();
}

TEST(DynamicStrategyPolicy, SpecArgsOverrideTheDefaults) {
  // Bare "dynamic": a window of 16 against a 40% bar.
  EXPECT_EQ(failures_until_switch("dynamic"), 16u);
  EXPECT_FALSE(leaves_predict("dynamic", 16, 7));  // 0.4375
  EXPECT_TRUE(leaves_predict("dynamic", 16, 6));   // 0.375
  // A window alone keeps the default threshold.
  EXPECT_EQ(failures_until_switch("dynamic:8"), 8u);
  EXPECT_FALSE(leaves_predict("dynamic:8", 8, 4));  // 0.5
  EXPECT_TRUE(leaves_predict("dynamic:8", 8, 3));   // 0.375
  // A threshold alone keeps the default window.
  EXPECT_EQ(failures_until_switch("dynamic:,0.5"), 16u);
  EXPECT_FALSE(leaves_predict("dynamic:,0.5", 16, 8));
  EXPECT_TRUE(leaves_predict("dynamic:,0.5", 16, 7));
  // Both.
  EXPECT_EQ(failures_until_switch("dynamic:3,0.9"), 3u);
  EXPECT_FALSE(leaves_predict("dynamic:3,0.9", 3, 3));
  EXPECT_TRUE(leaves_predict("dynamic:3,0.9", 3, 2));  // 0.67 < 0.9
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

TEST(DynamicStrategyEngine, SwitchesInsideAnEngineRun) {
  // The FIFO's first predict window fails, so the run leaves predict for
  // ctg; exact counts are the SAT layer's business and are not pinned.
  const auto cc = circuits::fifo_safe(6, 10);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, config_for("dynamic:4,0.5"));
  const Result r = engine.check(Deadline::in_seconds(60));
  EXPECT_EQ(r.verdict, Verdict::kSafe);
  EXPECT_GE(r.stats.num_strategy_switches, 1u);
  ASSERT_FALSE(r.stats.gen_strategies.empty());
  EXPECT_EQ(r.stats.gen_strategies.front().name, "predict");
  std::uint64_t switches = 0;
  std::uint64_t attempts = 0;
  for (const GenStrategyStats& s : r.stats.gen_strategies) {
    switches += s.switches;
    attempts += s.attempts;
  }
  EXPECT_EQ(switches, r.stats.num_strategy_switches);
  EXPECT_EQ(attempts, r.stats.num_generalizations);
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
