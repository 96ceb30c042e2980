/// Engine evidence through the certificate checker: valid traces and
/// invariants pass cert::check; corrupted traces and non-inductive
/// "invariants" are rejected with a reason.
#include <gtest/gtest.h>

#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

cert::CheckOutcome replay(const ts::TransitionSystem& ts, const Trace& t) {
  return cert::check(ts, cert::from_trace(ts, t));
}

cert::CheckOutcome certify(const ts::TransitionSystem& ts,
                           const InductiveInvariant& inv) {
  return cert::check(ts, cert::from_invariant(ts, inv));
}

TEST(Witness, ValidTracePasses) {
  const auto cc = circuits::counter_unsafe(4, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  const Result r = engine.check();
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  EXPECT_TRUE(replay(ts, *r.trace).ok);
}

TEST(Witness, EmptyTraceRejected) {
  const auto cc = circuits::counter_unsafe(4, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const cert::CheckOutcome out = replay(ts, Trace{});
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.reason.empty());
}

TEST(Witness, TraceNotStartingInInitRejected) {
  const auto cc = circuits::counter_unsafe(3, 2);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  // State count=1 does not intersect I = {count=0}.
  std::vector<Lit> lits{Lit::make(ts.state_var(0))};
  Trace trace;
  trace.states.push_back(Cube::from_lits(std::move(lits)));
  trace.inputs.push_back({});
  EXPECT_FALSE(replay(ts, trace).ok);
}

TEST(Witness, TraceWithoutBadAtEndRejected) {
  const auto cc = circuits::counter_unsafe(3, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  // A single-state "trace" in I where bad does not hold.
  Trace trace;
  trace.states.push_back(Cube::from_lits({Lit::make(ts.state_var(0), true)}));
  trace.inputs.push_back({});
  const cert::CheckOutcome out = replay(ts, trace);
  EXPECT_FALSE(out.ok);
}

TEST(Witness, TruncatedInputsRejected) {
  const auto cc = circuits::shift_register(3, false);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Trace trace;
  trace.states.push_back(Cube{});
  trace.states.push_back(Cube{});
  trace.inputs.push_back({});  // one input vector short
  EXPECT_FALSE(replay(ts, trace).ok);
}

TEST(Witness, ValidInvariantPasses) {
  const auto cc = circuits::token_ring_safe(5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  const Result r = engine.check();
  ASSERT_EQ(r.verdict, Verdict::kSafe);
  EXPECT_TRUE(certify(ts, *r.invariant).ok);
}

TEST(Witness, NonInductiveInvariantRejected) {
  const auto cc = circuits::counter_unsafe(4, 9);  // actually unsafe!
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  // Claim "count != 9" as a one-clause invariant: it is not inductive
  // (count=8 steps into 9) — consecution must fail.
  InductiveInvariant inv;
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    lits.push_back(Lit::make(ts.state_var(i), ((9u >> i) & 1u) == 0));
  }
  inv.lemma_cubes.push_back(Cube::from_lits(std::move(lits)));
  const cert::CheckOutcome out = certify(ts, inv);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.reason.find("consecution"), std::string::npos);
}

TEST(Witness, InvariantViolatingInitiationRejected) {
  const auto cc = circuits::counter_wrap_safe(4, 8, 14);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  // A lemma blocking the initial state itself: initiation must fail.
  InductiveInvariant inv;
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    lits.push_back(Lit::make(ts.state_var(i), true));  // count == 0
  }
  inv.lemma_cubes.push_back(Cube::from_lits(std::move(lits)));
  const cert::CheckOutcome out = certify(ts, inv);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.reason.find("initiation"), std::string::npos);
}

TEST(Witness, InvariantNotExcludingBadRejected) {
  // An otherwise-inductive invariant that fails to rule out the bad cone.
  const auto cc = circuits::counter_wrap_safe(3, 4, 6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  InductiveInvariant inv;  // empty invariant = ⊤: trivially inductive
  const cert::CheckOutcome out = certify(ts, inv);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.reason.find("bad"), std::string::npos);
}

TEST(Witness, AigerWitnessFormat) {
  // shift_register(3): cex needs input 1 then anything; check the emitted
  // HWMCC stimulus structure and that its inputs replay to bad.
  const auto cc = circuits::shift_register(3, false);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  const Result r = engine.check();
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  const std::string w = to_aiger_witness(ts, *r.trace, 0);
  // Structure: "1", "b0", latch line, ≥1 input lines, ".".
  std::istringstream iss(w);
  std::string line;
  ASSERT_TRUE(std::getline(iss, line));
  EXPECT_EQ(line, "1");
  ASSERT_TRUE(std::getline(iss, line));
  EXPECT_EQ(line, "b0");
  ASSERT_TRUE(std::getline(iss, line));
  EXPECT_EQ(line.size(), ts.num_latches());
  EXPECT_EQ(line, std::string(ts.num_latches(), '0'));  // all-zero reset
  std::size_t input_lines = 0;
  while (std::getline(iss, line) && line != ".") {
    EXPECT_EQ(line.size(), ts.num_inputs());
    for (const char c : line) EXPECT_TRUE(c == '0' || c == '1');
    ++input_lines;
  }
  EXPECT_EQ(line, ".");
  EXPECT_EQ(input_lines, r.trace->length());
}

TEST(Witness, AigerWitnessReportsPropertyIndex) {
  const auto cc = circuits::counter_unsafe(3, 2);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  Engine engine(ts, {});
  const Result r = engine.check();
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  const std::string w = to_aiger_witness(ts, *r.trace, 3);
  EXPECT_NE(w.find("b3\n"), std::string::npos);
}

TEST(Witness, EngineTracesAcrossFamiliesReplay) {
  for (const auto& cc :
       {circuits::token_ring_unsafe(5), circuits::twin_counters_unsafe(4),
        circuits::gray_counter_unsafe(4), circuits::fifo_unsafe(3, 5)}) {
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    Engine engine(ts, {});
    const Result r = engine.check();
    ASSERT_EQ(r.verdict, Verdict::kUnsafe) << cc.name;
    const cert::CheckOutcome out = replay(ts, *r.trace);
    EXPECT_TRUE(out.ok) << cc.name << ": " << out.reason;
  }
}

}  // namespace
}  // namespace pilot::ic3
