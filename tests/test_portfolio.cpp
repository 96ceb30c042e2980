/// Portfolio-scheduler tests: spec parsing, first-verdict-wins semantics,
/// loser cancellation, verdict determinism across repeated races (the
/// winner may differ — the verdict must not), witness certification of
/// whichever backend wins, and the check::check_ts dispatch path.
#include <gtest/gtest.h>

#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "engine/portfolio.hpp"
#include "ts/transition_system.hpp"

namespace pilot::engine {
namespace {

TEST(PortfolioSpec, ParsesAndValidates) {
  // An empty spec is malformed, not "defaults" — the default mix is
  // requested by leaving PortfolioOptions::backends empty.
  EXPECT_THROW((void)parse_portfolio_spec(""), std::invalid_argument);
  const std::vector<std::string> one = parse_portfolio_spec("bmc");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "bmc");
  const std::vector<std::string> three =
      parse_portfolio_spec("ic3-ctg-pl+bmc+kind");
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0], "ic3-ctg-pl");
  EXPECT_EQ(three[1], "bmc");
  EXPECT_EQ(three[2], "kind");
  EXPECT_THROW((void)parse_portfolio_spec("bmc+nope"), std::invalid_argument);
  EXPECT_THROW((void)parse_portfolio_spec("bmc+bmc"), std::invalid_argument);
  EXPECT_THROW((void)parse_portfolio_spec("+bmc"), std::invalid_argument);
  EXPECT_THROW((void)parse_portfolio_spec("bmc+"), std::invalid_argument);
}

TEST(Portfolio, UnknownBackendThrowsBeforeSpawning) {
  const auto cc = circuits::mutex_safe();
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  PortfolioOptions po;
  po.backends = {"ic3-ctg", "no-such-engine"};
  EXPECT_THROW((void)run_portfolio(ts, po), std::invalid_argument);
}

TEST(Portfolio, FirstVerdictWinsAndLosersAreCancelled) {
  // BMC finds this counterexample immediately; the hard SAFE-side prover
  // configurations lose the race and must be stopped, not run to
  // completion — the whole race finishing fast is the cancellation proof.
  const auto cc = circuits::counter_unsafe(6, 10);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  PortfolioOptions po;
  Timer wall;
  const PortfolioResult pr = run_portfolio(ts, po);
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kUnsafe);
  EXPECT_FALSE(pr.winner.empty());
  ASSERT_EQ(pr.timings.size(), default_portfolio_backends().size());
  std::size_t winners = 0;
  for (const BackendTiming& t : pr.timings) {
    if (t.winner) {
      ++winners;
      EXPECT_EQ(t.name, pr.winner);
      EXPECT_NE(t.verdict, ic3::Verdict::kUnknown);
    }
    if (t.verdict == ic3::Verdict::kUnknown) {
      EXPECT_TRUE(t.cancelled);
    }
  }
  EXPECT_EQ(winners, 1u);
  // Generous bound: the circuit solves in milliseconds; only a loser
  // burning an unbounded budget could push the race past this.
  EXPECT_LT(wall.seconds(), 30.0);
}

TEST(Portfolio, BudgetExhaustionReportsRealWallClock) {
  // Nobody solves this within 100 ms; the no-winner result must still
  // carry the race's actual elapsed time, not a default-constructed 0.
  const auto cc = circuits::counter_wrap_safe(12, 1024, 2048);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const PortfolioResult pr =
      run_portfolio(ts, {}, Deadline::in_milliseconds(100));
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kUnknown);
  EXPECT_TRUE(pr.winner.empty());
  EXPECT_GE(pr.result.seconds, 0.05);
  // Deadline expiry without a winner is not a cancellation.
  for (const BackendTiming& t : pr.timings) {
    EXPECT_FALSE(t.winner);
    EXPECT_FALSE(t.cancelled) << t.name;
  }
}

TEST(Portfolio, ExternalCancelStopsTheWholeRace) {
  const auto cc = circuits::counter_wrap_safe(12, 1024, 2048);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  CancelToken cancel;
  cancel.request_stop();
  const PortfolioResult pr = run_portfolio(ts, {}, {}, &cancel);
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kUnknown);
  EXPECT_TRUE(pr.winner.empty());
  for (const BackendTiming& t : pr.timings) {
    EXPECT_EQ(t.verdict, ic3::Verdict::kUnknown);
    EXPECT_TRUE(t.cancelled);
  }
}

/// The ISSUE's determinism & soundness gate: 10 races per verdict class;
/// whichever backend wins, the verdict must be identical every time and the
/// winner's certificate must check.
TEST(Portfolio, VerdictDeterministicOverTenRacesSafe) {
  const auto cc = circuits::token_ring_safe(6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  for (int round = 0; round < 10; ++round) {
    const PortfolioResult pr = run_portfolio(ts, {});
    ASSERT_EQ(pr.result.verdict, ic3::Verdict::kSafe) << "round " << round;
    ASSERT_FALSE(pr.winner.empty());
    if (pr.result.invariant.has_value()) {
      EXPECT_TRUE(
          cert::check(ts, cert::from_invariant(ts, *pr.result.invariant)).ok)
          << "round " << round << " winner " << pr.winner;
    }
  }
}

TEST(Portfolio, VerdictDeterministicOverTenRacesUnsafe) {
  const auto cc = circuits::counter_unsafe(6, 10);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  for (int round = 0; round < 10; ++round) {
    const PortfolioResult pr = run_portfolio(ts, {});
    ASSERT_EQ(pr.result.verdict, ic3::Verdict::kUnsafe) << "round " << round;
    ASSERT_FALSE(pr.winner.empty());
    // Every backend in the default portfolio produces a trace on UNSAFE.
    ASSERT_TRUE(pr.result.trace.has_value())
        << "round " << round << " winner " << pr.winner;
    EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *pr.result.trace)).ok)
        << "round " << round << " winner " << pr.winner;
  }
}

}  // namespace
}  // namespace pilot::engine

namespace pilot::check {
namespace {

TEST(CheckerPortfolio, DispatchesThroughEngineSpec) {
  const auto cc = circuits::counter_unsafe(4, 6);
  CheckOptions opts;
  opts.engine_spec = "portfolio:bmc+kind";
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kUnsafe);
  EXPECT_FALSE(r.winner.empty());
  ASSERT_EQ(r.backend_timings.size(), 2u);
  EXPECT_EQ(r.backend_timings[0].name, "bmc");
  EXPECT_EQ(r.backend_timings[1].name, "kind");
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_TRUE(r.witness_checked);
  EXPECT_TRUE(r.witness_error.empty());
  // The race's certify gate checked the winner; check_ts hands that
  // certificate back instead of checking it a second time.
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.certificate->kind, cert::Certificate::Kind::kWitness);
  EXPECT_EQ(r.stats.num_cert_checks, 1u);
}

TEST(CheckerPortfolio, DefaultMixMatchesSingleEngineVerdicts) {
  // The bare "portfolio" spec (default backend mix) must agree with the
  // single engines on both verdict classes.
  CheckOptions portfolio_opts;
  portfolio_opts.engine_spec = "portfolio";
  EXPECT_EQ(check_aig(circuits::token_ring_safe(5).aig, portfolio_opts).verdict,
            ic3::Verdict::kSafe);
  EXPECT_EQ(check_aig(circuits::counter_unsafe(4, 6).aig, portfolio_opts)
                .verdict,
            ic3::Verdict::kUnsafe);
}

TEST(CheckerPortfolio, BadSpecThrows) {
  const auto cc = circuits::mutex_safe();
  CheckOptions opts;
  opts.engine_spec = "portfolio:bmc+nope";
  EXPECT_THROW((void)check_aig(cc.aig, opts), std::invalid_argument);
  opts.engine_spec = "portfolio:";  // trailing colon with no backend list
  EXPECT_THROW((void)check_aig(cc.aig, opts), std::invalid_argument);
  opts.engine_spec = "no-such-engine";
  EXPECT_THROW((void)check_aig(cc.aig, opts), std::invalid_argument);
}

}  // namespace
}  // namespace pilot::check
