/// Backend-registry tests: built-in registration, name→config mapping,
/// factory errors, verdict adapters for every engine family, custom backend
/// registration, and the cancellation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "engine/backend.hpp"
#include "ic3/generalizer.hpp"
#include "ts/transition_system.hpp"

namespace pilot::engine {
namespace {

ts::TransitionSystem make_ts(const circuits::CircuitCase& cc) {
  return ts::TransitionSystem::from_aig(cc.aig);
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  for (const char* name : {"ic3-down", "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl",
                           "ic3-cav23", "ic3-dyn", "pdr", "bmc", "kind"}) {
    EXPECT_TRUE(backend_registered(name)) << name;
  }
  EXPECT_FALSE(backend_registered("nope"));
  // names() is sorted and contains at least the built-ins.
  const std::vector<std::string> names = backend_names();
  EXPECT_GE(names.size(), 9u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(BackendRegistry, UnknownNameThrowsListingRegisteredEngines) {
  const auto cc = circuits::mutex_safe();
  const ts::TransitionSystem ts = make_ts(cc);
  try {
    (void)make_backend("no-such-engine", ts, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // The offending token and every registered name must appear.
    EXPECT_NE(msg.find("no-such-engine"), std::string::npos) << msg;
    for (const std::string& name : backend_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in " << msg;
    }
    EXPECT_NE(msg.find("portfolio"), std::string::npos) << msg;
  }
}

/// Every IC3 registry name but the alias pdr, with the strategy spec it runs.
const std::vector<std::pair<std::string, std::string>> kIc3Specs{
    {"ic3-down", "down"},   {"ic3-down-pl", "predict:down"},
    {"ic3-ctg", "ctg"},     {"ic3-ctg-pl", "predict:ctg"},
    {"ic3-cav23", "cav23"}, {"ic3-dyn", "dynamic"},
};

TEST(BackendRegistry, Ic3ConfigForMatchesNames) {
  for (const auto& [name, spec] : kIc3Specs) {
    EXPECT_EQ(ic3_config_for(name, 1).gen_spec, spec) << name;
  }
  EXPECT_EQ(ic3_config_for("pdr", 1).gen_spec, "down");
  EXPECT_EQ(ic3_config_for("ic3-ctg", 42).seed, 42u);
  EXPECT_THROW((void)ic3_config_for("bmc", 1), std::invalid_argument);
  EXPECT_THROW((void)ic3_config_for("portfolio", 1), std::invalid_argument);
}

TEST(Backend, EveryBuiltinAnswersBothVerdicts) {
  const auto safe_cc = circuits::token_ring_safe(5);
  const auto unsafe_cc = circuits::counter_unsafe(4, 6);
  const ts::TransitionSystem safe_ts = make_ts(safe_cc);
  const ts::TransitionSystem unsafe_ts = make_ts(unsafe_cc);
  // The fixed builtin list, not backend_names(): other tests may have
  // registered stub backends with made-up verdicts.
  for (const std::string name : {"ic3-down", "ic3-down-pl", "ic3-ctg",
                                 "ic3-ctg-pl", "ic3-cav23", "ic3-dyn", "pdr",
                                 "bmc", "kind"}) {
    {
      const std::unique_ptr<Backend> b = make_backend(name, safe_ts, {});
      EXPECT_EQ(b->name(), name);
      const EngineResult r = b->check(Deadline::in_seconds(30), nullptr);
      // BMC cannot prove safety; every other engine must.
      if (name == "bmc") {
        EXPECT_EQ(r.verdict, ic3::Verdict::kUnknown) << name;
      } else {
        EXPECT_EQ(r.verdict, ic3::Verdict::kSafe) << name;
      }
    }
    {
      const std::unique_ptr<Backend> b = make_backend(name, unsafe_ts, {});
      const EngineResult r = b->check(Deadline::in_seconds(30), nullptr);
      ASSERT_EQ(r.verdict, ic3::Verdict::kUnsafe) << name;
      // Every engine family produces a certifiable counterexample trace.
      ASSERT_TRUE(r.trace.has_value()) << name;
      EXPECT_TRUE(
          cert::check(unsafe_ts, cert::from_trace(unsafe_ts, *r.trace)).ok)
          << name;
    }
  }
}

TEST(Backend, UnrollingBackendsReportTheirDepthAsMaxFrame) {
  // `pilot --stats` and ResultsDb rows read the depth from stats.max_frame,
  // so it must agree with the result's frames, as it does for IC3.
  const auto cc = circuits::counter_unsafe(6, 10);
  const ts::TransitionSystem ts = make_ts(cc);
  for (const std::string name : {"bmc", "kind"}) {
    const std::unique_ptr<Backend> b = make_backend(name, ts, {});
    const EngineResult r = b->check(Deadline::in_seconds(30), nullptr);
    ASSERT_EQ(r.verdict, ic3::Verdict::kUnsafe) << name;
    EXPECT_GT(r.frames, 0u) << name;
    EXPECT_EQ(r.stats.max_frame, r.frames) << name;
  }
}

TEST(Backend, ContextOverridesReachIc3Backends) {
  // Engine name says -pl, but the patch selects plain ctg generalization —
  // the stats must show zero prediction queries.
  const auto cc = circuits::counter_wrap_safe(5, 16, 30);
  const ts::TransitionSystem ts = make_ts(cc);
  BackendContext ctx;
  ctx.patch = ic3::ConfigPatch::parse({"gen=ctg"});
  const std::unique_ptr<Backend> b = make_backend("ic3-ctg-pl", ts, ctx);
  const EngineResult r = b->check({}, nullptr);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_EQ(r.stats.num_prediction_queries, 0u);
}

/// The message parse() throws for `items`, or "" when it accepts them.
std::string patch_error(const std::vector<std::string>& items) {
  try {
    (void)ic3::ConfigPatch::parse(items);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigPatch, RejectsBadItemsNamingTheTokenAndTheValidKeys) {
  for (const char* item :
       {"nosuch=1", "predict_max_extra_lits", "predict_max_extra_lits=0",
        "predict_max_extra_lits=2x", "predict_refine_diff=maybe",
        "predict_max_extra_lits=3"}) {
    const std::string msg = patch_error({item});
    ASSERT_FALSE(msg.empty()) << item << " was accepted";
    EXPECT_NE(msg.find(item), std::string::npos) << msg;
    for (const std::string& key : ic3::ConfigPatch::keys()) {
      EXPECT_NE(msg.find(key), std::string::npos) << key << " in " << msg;
    }
  }
  // A bad strategy lists the strategies; predict takes only a drop loop as
  // its fallback, and a ':' needs something after it (one spelling per
  // recipe).
  for (const char* item :
       {"gen=nosuch", "gen=predict:dynamic", "gen=predict:predict",
        "gen=predict:x", "gen=ctg:", "gen=predict:", "gen=dynamic:"}) {
    const std::string msg = patch_error({item});
    ASSERT_FALSE(msg.empty()) << item << " was accepted";
    EXPECT_NE(msg.find(item), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered strategies:"), std::string::npos) << msg;
    for (const std::string& name : ic3::gen_strategy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in " << msg;
    }
  }
  for (const char* item :
       {"gen=predict:down", "gen=predict:ctg", "gen=predict:cav23"}) {
    EXPECT_EQ(patch_error({item}), "") << item;
  }
}

TEST(ConfigPatch, RetiredKeysAreUnknown) {
  EXPECT_EQ(ic3::ConfigPatch::keys().size(), 5u);
  for (const char* item :
       {"gen_batch=4", "gen_ternary_filter=off", "sat_inprocess=off"}) {
    const std::string msg = patch_error({item});
    EXPECT_NE(msg.find("unknown key"), std::string::npos) << item << ": " << msg;
  }
}

TEST(ConfigPatch, LastValueWinsAndItemsAreCanonical) {
  const ic3::ConfigPatch p = ic3::ConfigPatch::parse(
      {"predict_refine_diff=off", "predict_max_extra_lits=02", "gen=down",
       "predict_max_extra_lits=2"});
  const std::vector<std::string> want = {
      "gen=down", "predict_max_extra_lits=2", "predict_refine_diff=off"};
  EXPECT_EQ(p.items(), want);
  EXPECT_EQ(ic3::ConfigPatch::parse(p.items()), p);

  ic3::Config cfg = ic3_config_for("ic3-ctg", 7);
  p.apply(cfg);
  EXPECT_EQ(cfg.gen_spec, "down");
  EXPECT_EQ(cfg.predict_max_extra_lits, 2);
  EXPECT_FALSE(cfg.predict_refine_diff);
  // Unpatched fields keep the name's.
  EXPECT_EQ(cfg.seed, 7u);
}

/// The search-path fingerprint of one check_ts run.
std::vector<std::uint64_t> work_counts(const ts::TransitionSystem& ts,
                                       const std::string& engine,
                                       const std::vector<std::string>& set) {
  check::CheckOptions opts;
  opts.engine_spec = engine;
  opts.patch = ic3::ConfigPatch::parse(set);
  const check::CheckResult r = check::check_ts(ts, opts);
  EXPECT_NE(r.verdict, ic3::Verdict::kUnknown) << engine;
  const ic3::Ic3Stats& s = r.stats;
  return {s.num_lemmas,
          s.num_obligations,
          s.num_ctis,
          s.num_generalizations,
          s.num_mic_queries,
          s.num_prediction_queries,
          s.num_push_queries,
          s.sat_solve_calls};
}

TEST(ConfigPatch, EachEngineNameIsNothingButItsSpec) {
  // Patching ic3-ctg to a name's spec must retrace the name's search path
  // exactly: the spec is the whole configuration the name selects.
  for (const auto& cc :
       {circuits::token_ring_safe(6), circuits::fifo_unsafe(4, 9)}) {
    const ts::TransitionSystem ts = make_ts(cc);
    for (const auto& [name, spec] : kIc3Specs) {
      EXPECT_EQ(work_counts(ts, name, {}),
                work_counts(ts, "ic3-ctg", {"gen=" + spec}))
          << cc.name << ": " << name << " vs gen=" << spec;
    }
    // Bare predict falls back to ctgDown.
    EXPECT_EQ(work_counts(ts, "ic3-ctg", {"gen=predict"}),
              work_counts(ts, "ic3-ctg", {"gen=predict:ctg"}))
        << cc.name;
  }
}

TEST(ConfigPatch, AblationKeysSetTheirFields) {
  ic3::Config cfg;
  ic3::ConfigPatch::parse({"clear_failure_push_on_propagate=off",
                           "predict_refine_diff=off",
                           "predict_max_extra_lits=2",
                           "predict_core_shrink=on"})
      .apply(cfg);
  EXPECT_FALSE(cfg.clear_failure_push_on_propagate);
  EXPECT_FALSE(cfg.predict_refine_diff);
  EXPECT_EQ(cfg.predict_max_extra_lits, 2);
  EXPECT_TRUE(cfg.predict_core_shrink);
}

TEST(Backend, PdrIsIc3Down) {
  // ABC-PDR is plain dropping with ternary lifting, which is exactly what
  // ic3-down runs: both names walk the same search path and print the same
  // stats line.
  for (const auto& cc :
       {circuits::token_ring_safe(5), circuits::fifo_unsafe(4, 9)}) {
    const ts::TransitionSystem ts = make_ts(cc);
    check::CheckOptions opts;
    opts.engine_spec = "pdr";
    const check::CheckResult pdr = check::check_ts(ts, opts);
    opts.engine_spec = "ic3-down";
    const check::CheckResult down = check::check_ts(ts, opts);
    EXPECT_NE(down.verdict, ic3::Verdict::kUnknown) << cc.name;
    EXPECT_EQ(pdr.verdict, down.verdict) << cc.name;
    EXPECT_EQ(pdr.stats.summary(), down.stats.summary()) << cc.name;
    EXPECT_GT(down.stats.num_packed_sim_words, 0u) << cc.name;
  }
}

TEST(Backend, StoppedTokenYieldsUnknown) {
  const auto cc = circuits::counter_wrap_safe(12, 1024, 2048);
  const ts::TransitionSystem ts = make_ts(cc);
  CancelToken cancel;
  cancel.request_stop();
  for (const char* name : {"ic3-ctg-pl", "bmc", "kind"}) {
    const std::unique_ptr<Backend> b = make_backend(name, ts, {});
    const EngineResult r = b->check({}, &cancel);
    EXPECT_EQ(r.verdict, ic3::Verdict::kUnknown) << name;
  }
}

TEST(BackendRegistry, CustomBackendsPlugIn) {
  // A stub engine registered at runtime must be constructible by name and
  // re-registration under the same name must be rejected.
  class StubBackend final : public Backend {
   public:
    [[nodiscard]] const std::string& name() const override {
      static const std::string kName = "test-stub";
      return kName;
    }
    EngineResult check(const Deadline&, const CancelToken*) override {
      EngineResult r;
      r.verdict = ic3::Verdict::kSafe;
      return r;
    }
  };
  if (!backend_registered("test-stub")) {
    register_backend("test-stub",
                     [](const ts::TransitionSystem&, const BackendContext&) {
                       return std::make_unique<StubBackend>();
                     });
  }
  EXPECT_THROW(register_backend(
                   "test-stub",
                   [](const ts::TransitionSystem&, const BackendContext&) {
                     return std::make_unique<StubBackend>();
                   }),
               std::invalid_argument);
  const auto cc = circuits::mutex_unsafe();
  const ts::TransitionSystem ts = make_ts(cc);
  const std::unique_ptr<Backend> b = make_backend("test-stub", ts, {});
  EXPECT_EQ(b->check({}, nullptr).verdict, ic3::Verdict::kSafe);
}

}  // namespace
}  // namespace pilot::engine
