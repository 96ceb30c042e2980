/// Check-facade tests: the paper-configuration table, option plumbing
/// (budgets, overrides), and certificate propagation through CheckResult.
#include <gtest/gtest.h>

#include "check/checker.hpp"
#include "circuits/builder.hpp"
#include "circuits/families.hpp"
#include "engine/backend.hpp"

namespace pilot::check {
namespace {

TEST(Checker, EngineSpecSelectsBackend) {
  // k-induction (unlike BMC) can prove the constrained shift register safe.
  const auto cc = circuits::shift_register(5, true);
  CheckOptions opts;
  opts.engine_spec = "kind";
  opts.budget_ms = 30000;
  EXPECT_EQ(check_aig(cc.aig, opts).verdict, ic3::Verdict::kSafe);
}

TEST(Checker, PaperConfigurationsMatchTable1Order) {
  const auto& configs = paper_configurations();
  ASSERT_EQ(configs.size(), 6u);
  EXPECT_EQ(configs[0], "ic3-down");     // RIC3
  EXPECT_EQ(configs[1], "ic3-down-pl");  // RIC3-pl
  EXPECT_EQ(configs[2], "ic3-ctg");      // IC3ref
  EXPECT_EQ(configs[3], "ic3-ctg-pl");   // IC3ref-pl
  EXPECT_EQ(configs[4], "ic3-cav23");    // IC3ref-CAV23
  EXPECT_EQ(configs[5], "pdr");          // ABC-PDR
  // Every paper spec resolves in the registry.
  for (const std::string& spec : configs) {
    EXPECT_TRUE(engine::backend_registered(spec)) << spec;
  }
}

TEST(Checker, PaperConfigurationsSetTheRightKnobs) {
  using engine::ic3_config_for;
  const ic3::Config down = ic3_config_for("ic3-down", 1);
  EXPECT_EQ(down.gen_mode, ic3::GenMode::kDown);
  EXPECT_FALSE(down.predict_lemmas);

  const ic3::Config down_pl = ic3_config_for("ic3-down-pl", 1);
  EXPECT_EQ(down_pl.gen_mode, ic3::GenMode::kDown);
  EXPECT_TRUE(down_pl.predict_lemmas);

  const ic3::Config ctg_pl = ic3_config_for("ic3-ctg-pl", 1);
  EXPECT_EQ(ctg_pl.gen_mode, ic3::GenMode::kCtg);
  EXPECT_TRUE(ctg_pl.predict_lemmas);

  const ic3::Config cav = ic3_config_for("ic3-cav23", 1);
  EXPECT_EQ(cav.gen_mode, ic3::GenMode::kCav23);

  const ic3::Config pdr = ic3_config_for("pdr", 1);
  EXPECT_EQ(pdr.gen_mode, ic3::GenMode::kDown);
  EXPECT_EQ(pdr.ctg_max_ctgs, 0);
  EXPECT_EQ(pdr.lift_mode, ic3::Config::LiftMode::kTernary);

}

TEST(Checker, ResultCarriesVerifiedTrace) {
  const auto cc = circuits::counter_unsafe(4, 6);
  CheckOptions opts;
  opts.engine_spec = "ic3-ctg-pl";
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kUnsafe);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_TRUE(r.witness_checked);
  EXPECT_TRUE(r.witness_error.empty());
  EXPECT_FALSE(r.invariant.has_value());
}

TEST(Checker, ResultCarriesVerifiedInvariant) {
  const auto cc = circuits::token_ring_safe(5);
  CheckOptions opts;
  opts.engine_spec = "ic3-down";
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  ASSERT_TRUE(r.invariant.has_value());
  EXPECT_TRUE(r.witness_checked);
  EXPECT_FALSE(r.trace.has_value());
}

TEST(Checker, KinductionSafeVerdictIsCertified) {
  const auto cc = circuits::shift_register(5, true);
  CheckOptions opts;
  opts.engine_spec = "kind";
  opts.budget_ms = 30000;
  const CheckResult r = check_aig(cc.aig, opts);
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_TRUE(r.witness_checked) << r.witness_error;
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.certificate->kind, cert::Certificate::Kind::kKinduction);
  EXPECT_EQ(r.stats.num_cert_checks, 1u);
}

TEST(Checker, VerifyWitnessOffBuildsButDoesNotCheck) {
  const auto cc = circuits::token_ring_safe(4);
  CheckOptions opts;
  opts.engine_spec = "ic3-ctg";
  opts.verify_witness = false;
  const CheckResult r = check_aig(cc.aig, opts);
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_FALSE(r.witness_checked);
  EXPECT_TRUE(r.witness_error.empty());
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.stats.num_cert_checks, 0u);
}

TEST(Checker, BmcProducesTraceButCannotProve) {
  CheckOptions opts;
  opts.engine_spec = "bmc";
  opts.budget_ms = 3000;
  const CheckResult unsafe_r =
      check_aig(circuits::counter_unsafe(4, 6).aig, opts);
  EXPECT_EQ(unsafe_r.verdict, ic3::Verdict::kUnsafe);
  EXPECT_TRUE(unsafe_r.trace.has_value());

  const CheckResult safe_r =
      check_aig(circuits::token_ring_safe(4).aig, opts);
  EXPECT_EQ(safe_r.verdict, ic3::Verdict::kUnknown);  // bound/budget only
}

TEST(Checker, OverridesTakePrecedence) {
  // Engine says ctg+pl, but the override forces prediction off — the
  // stats must show zero prediction queries.
  const auto cc = circuits::counter_wrap_safe(5, 16, 30);
  CheckOptions opts;
  opts.engine_spec = "ic3-ctg-pl";
  ic3::Config override_cfg = engine::ic3_config_for("ic3-ctg-pl", 0);
  override_cfg.predict_lemmas = false;
  opts.ic3_overrides = override_cfg;
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_EQ(r.stats.num_prediction_queries, 0u);
}

TEST(Checker, BudgetYieldsUnknown) {
  // A case that certainly needs more than 1 ms.
  const auto cc = circuits::counter_wrap_safe(10, 320, 900);
  CheckOptions opts;
  opts.engine_spec = "ic3-ctg";
  opts.budget_ms = 1;
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kUnknown);
}

TEST(Checker, PropertyIndexSelectsAmongBads) {
  // Two bad properties: bad0 = count==2 (reachable), bad1 = constant false.
  aig::Aig a;
  const circuits::Word count = circuits::make_latches(a, 3, 0, "c");
  circuits::connect(a, count, circuits::increment(a, count));
  a.add_bad(circuits::equals_const(a, count, 2));
  a.add_bad(aig::AigLit::constant(false));
  CheckOptions opts;
  opts.engine_spec = "ic3-down";
  opts.property_index = 0;
  EXPECT_EQ(check_aig(a, opts).verdict, ic3::Verdict::kUnsafe);
  opts.property_index = 1;
  EXPECT_EQ(check_aig(a, opts).verdict, ic3::Verdict::kSafe);
}

}  // namespace
}  // namespace pilot::check
