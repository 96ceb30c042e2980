/// Backend-registry tests: built-in registration, name→config mapping,
/// factory errors, verdict adapters for every engine family, custom backend
/// registration, and the cancellation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "engine/backend.hpp"
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

TEST(BackendRegistry, Ic3ConfigForMatchesNames) {
  EXPECT_EQ(ic3_config_for("ic3-down", 1).gen_mode, ic3::GenMode::kDown);
  EXPECT_FALSE(ic3_config_for("ic3-down", 1).predict_lemmas);
  EXPECT_TRUE(ic3_config_for("ic3-down-pl", 1).predict_lemmas);
  EXPECT_EQ(ic3_config_for("ic3-ctg", 1).gen_mode, ic3::GenMode::kCtg);
  EXPECT_TRUE(ic3_config_for("ic3-ctg-pl", 1).predict_lemmas);
  EXPECT_EQ(ic3_config_for("ic3-cav23", 1).gen_mode, ic3::GenMode::kCav23);
  EXPECT_EQ(ic3_config_for("ic3-dyn", 1).gen_spec, "dynamic");
  EXPECT_EQ(ic3_config_for("pdr", 1).ctg_max_ctgs, 0);
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

TEST(Backend, ContextOverridesReachIc3Backends) {
  // Engine name says -pl, but the override forces prediction off — the
  // stats must show zero prediction queries.
  const auto cc = circuits::counter_wrap_safe(5, 16, 30);
  const ts::TransitionSystem ts = make_ts(cc);
  BackendContext ctx;
  ic3::Config cfg = ic3_config_for("ic3-ctg-pl", 0);
  cfg.predict_lemmas = false;
  ctx.ic3_overrides = cfg;
  const std::unique_ptr<Backend> b = make_backend("ic3-ctg-pl", ts, ctx);
  const EngineResult r = b->check({}, nullptr);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_EQ(r.stats.num_prediction_queries, 0u);
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
