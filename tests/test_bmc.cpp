/// BMC and k-induction tests: exact counterexample depths (known by
/// construction), bound behaviour, inductive proofs, and simple-path
/// completeness.
#include <gtest/gtest.h>

#include "bmc/bmc.hpp"
#include "bmc/kinduction.hpp"
#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "ts/transition_system.hpp"

namespace pilot::bmc {
namespace {

struct DepthCase {
  circuits::CircuitCase cc;
  int depth;
};

class BmcExactDepth : public ::testing::TestWithParam<int> {};

TEST_P(BmcExactDepth, CounterDepthMatchesTarget) {
  const int target = GetParam();
  const auto cc = circuits::counter_unsafe(6, target);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const BmcResult r = run_bmc(ts, BmcOptions{});
  ASSERT_EQ(r.verdict, BmcVerdict::kUnsafe);
  EXPECT_EQ(r.counterexample_length, target);
}

INSTANTIATE_TEST_SUITE_P(Depths, BmcExactDepth,
                         ::testing::Values(0, 1, 7, 23));

TEST(Bmc, FamiliesWithKnownDepths) {
  const std::vector<DepthCase> cases = {
      {circuits::shift_register(5, false), 5},
      {circuits::token_ring_unsafe(4), 1},
      {circuits::twin_counters_unsafe(4), 1},
      {circuits::gray_counter_unsafe(4), 2},
      {circuits::fifo_unsafe(4, 6), 7},
      {circuits::combination_lock_unsafe(2, {1, 3, 0}), 3},
  };
  for (const auto& [cc, depth] : cases) {
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    const BmcResult r = run_bmc(ts, BmcOptions{});
    ASSERT_EQ(r.verdict, BmcVerdict::kUnsafe) << cc.name;
    EXPECT_EQ(r.counterexample_length, depth) << cc.name;
    EXPECT_EQ(r.counterexample_length, cc.expected_cex_length) << cc.name;
  }
}

TEST(Bmc, TraceIsValid) {
  const auto cc = circuits::fifo_unsafe(4, 6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const BmcResult r = run_bmc(ts, BmcOptions{});
  ASSERT_TRUE(r.trace.has_value());
  const cert::CheckOutcome out =
      cert::check(ts, cert::from_trace(ts, *r.trace));
  EXPECT_TRUE(out.ok) << out.reason;
}

TEST(Bmc, BoundReachedOnSafeModel) {
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  BmcOptions options;
  options.max_bound = 12;
  const BmcResult r = run_bmc(ts, options);
  EXPECT_EQ(r.verdict, BmcVerdict::kBoundReached);
}

TEST(Bmc, RespectsConstraints) {
  // The constrained shift register has no counterexample at any bound.
  const auto cc = circuits::shift_register(4, true);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  BmcOptions options;
  options.max_bound = 10;
  EXPECT_EQ(run_bmc(ts, options).verdict, BmcVerdict::kBoundReached);
}

TEST(Kinduction, ProvesInductiveProperties) {
  // The token ring's "at most one token" is inductive at small k with
  // simple-path constraints.
  const auto cc = circuits::token_ring_safe(5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const KindResult r = run_kinduction(ts, KindOptions{});
  EXPECT_EQ(r.verdict, KindVerdict::kSafe);
}

TEST(Kinduction, FindsCounterexamples) {
  const auto cc = circuits::counter_unsafe(5, 6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const KindResult r = run_kinduction(ts, KindOptions{});
  ASSERT_EQ(r.verdict, KindVerdict::kUnsafe);
  EXPECT_EQ(r.k, 6);
}

TEST(Kinduction, SimplePathCompletesOnFiniteSystems) {
  // The wrap counter needs simple-path constraints to converge: states
  // 4..7 are unreachable but non-bad, and without disequalities the step
  // case keeps finding longer fake paths through them.
  const auto cc = circuits::counter_wrap_safe(3, 4, 6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  KindOptions options;
  options.max_k = 20;
  const KindResult with_sp = run_kinduction(ts, options);
  EXPECT_EQ(with_sp.verdict, KindVerdict::kSafe);
}

TEST(Kinduction, UnsafeWitnessesReplayUnderBitSimulator) {
  // Property: every counterexample extract_unrolled_trace produces from the
  // base-case model must replay concretely, solver-free, through the
  // witness-certificate path (an HWMCC rendering driven through
  // aig::BitSimulator).
  std::vector<circuits::CircuitCase> cases;
  cases.push_back(circuits::counter_unsafe(4, 9));
  cases.push_back(circuits::counter_enable_unsafe(3, 5));
  cases.push_back(circuits::token_ring_unsafe(4));
  cases.push_back(circuits::gray_counter_unsafe(4));
  cases.push_back(circuits::fifo_unsafe(3, 5));
  cases.push_back(circuits::twin_counters_unsafe(4));
  cases.push_back(circuits::saturating_accumulator_unsafe(3, 5));
  cases.push_back(circuits::arbiter_unsafe(3));
  for (const circuits::CircuitCase& cc : cases) {
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    const KindResult r = run_kinduction(ts, KindOptions{});
    ASSERT_EQ(r.verdict, KindVerdict::kUnsafe) << cc.name;
    ASSERT_TRUE(r.trace.has_value()) << cc.name;
    const cert::Certificate cert = cert::from_trace(ts, *r.trace);
    const cert::CheckOutcome certified = cert::check(ts, cert);
    EXPECT_TRUE(certified.ok) << cc.name << ": " << certified.reason;
  }
}

TEST(Kinduction, DeadlineReturnsUnknown) {
  const auto cc = circuits::ring_parity_safe(12);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const Deadline expired = Deadline::in_milliseconds(0);
  while (!expired.expired()) {
  }
  const KindResult r = run_kinduction(ts, KindOptions{}, expired);
  EXPECT_EQ(r.verdict, KindVerdict::kUnknown);
}

}  // namespace
}  // namespace pilot::bmc
