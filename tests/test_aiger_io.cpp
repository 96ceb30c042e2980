/// AIGER reader/writer tests: ASCII and binary round trips (checked by
/// co-simulation), header variants, reset values, bad/constraint sections,
/// and malformed-input rejection.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "aig/aiger_io.hpp"
#include "aig/simulation.hpp"
#include "circuits/families.hpp"
#include "util/rng.hpp"

namespace pilot::aig {
namespace {

/// Semantic equivalence by 64-way random co-simulation over several steps.
void expect_equivalent(const Aig& a, const Aig& b, std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_latches(), b.num_latches());
  ASSERT_EQ(a.bads().size(), b.bads().size());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());

  pilot::Rng rng(seed);
  BitSimulator sa(a);
  BitSimulator sb(b);
  sa.reset();
  sb.reset();
  for (int step = 0; step < 8; ++step) {
    std::vector<std::uint64_t> inputs(a.num_inputs());
    for (auto& w : inputs) w = rng.next_u64();
    sa.compute(inputs);
    sb.compute(inputs);
    for (std::size_t i = 0; i < a.bads().size(); ++i) {
      EXPECT_EQ(sa.value(a.bads()[i]), sb.value(b.bads()[i]))
          << "bad " << i << " diverges at step " << step;
    }
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
      EXPECT_EQ(sa.value(a.outputs()[i]), sb.value(b.outputs()[i]));
    }
    sa.latch_step();
    sb.latch_step();
  }
}

TEST(AigerIo, ParsesMinimalAscii) {
  // Single AND of two inputs.
  const Aig a = read_aiger_string("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n");
  EXPECT_EQ(a.num_inputs(), 2u);
  EXPECT_EQ(a.num_ands(), 1u);
  ASSERT_EQ(a.outputs().size(), 1u);
}

TEST(AigerIo, ParsesLatchWithResetValues) {
  // Three latches: init 0 (default), init 1, uninitialized (init == lhs).
  const Aig a = read_aiger_string(
      "aag 3 0 3 0 0\n2 2\n4 4 1\n6 6 6\n");
  ASSERT_EQ(a.num_latches(), 3u);
  EXPECT_EQ(a.init(a.latches()[0]), l_False);
  EXPECT_EQ(a.init(a.latches()[1]), l_True);
  EXPECT_TRUE(a.init(a.latches()[2]).is_undef());
}

TEST(AigerIo, ParsesBadAndConstraintSections) {
  // aag M I L O A B C.
  const Aig a = read_aiger_string(
      "aag 2 1 1 0 0 1 1\n2\n4 4\n4\n2\n");
  EXPECT_EQ(a.bads().size(), 1u);
  EXPECT_EQ(a.constraints().size(), 1u);
}

TEST(AigerIo, AsciiRoundTripOnFamilies) {
  for (auto make : {circuits::token_ring_safe, circuits::token_ring_unsafe}) {
    const circuits::CircuitCase cc = make(5);
    const Aig back = read_aiger_string(to_aiger_ascii(cc.aig));
    expect_equivalent(cc.aig, back, 123);
  }
}

TEST(AigerIo, BinaryRoundTripOnFamilies) {
  const circuits::CircuitCase cc = circuits::fifo_safe(4, 11);
  const Aig back = read_aiger_string(to_aiger_binary(cc.aig));
  expect_equivalent(cc.aig, back, 321);
}

TEST(AigerIo, AsciiBinaryCrossRoundTrip) {
  const circuits::CircuitCase cc = circuits::gray_counter_safe(5);
  const Aig via_ascii = read_aiger_string(to_aiger_ascii(cc.aig));
  const Aig via_binary = read_aiger_string(to_aiger_binary(cc.aig));
  expect_equivalent(via_ascii, via_binary, 777);
}

TEST(AigerIo, RoundTripPreservesConstraints) {
  const circuits::CircuitCase cc = circuits::shift_register(6, true);
  ASSERT_EQ(cc.aig.constraints().size(), 1u);
  const Aig back = read_aiger_string(to_aiger_binary(cc.aig));
  EXPECT_EQ(back.constraints().size(), 1u);
  expect_equivalent(cc.aig, back, 55);
}

/// The parse error `text` raises, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)read_aiger_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(AigerIo, RejectsBadMagic) {
  EXPECT_THROW(read_aiger_string("xyz 0 0 0 0 0\n"), std::runtime_error);
}

TEST(AigerIo, RejectsTruncatedHeader) {
  EXPECT_THROW(read_aiger_string("aag 3 2\n"), std::runtime_error);
}

TEST(AigerIo, RejectsJusticeProperties) {
  EXPECT_THROW(read_aiger_string("aag 1 1 0 0 0 0 0 1\n2\n"),
               std::runtime_error);
}

TEST(AigerIo, RejectsUndefinedLiteral) {
  EXPECT_THROW(read_aiger_string("aag 1 1 0 1 0\n2\n4\n"),
               std::runtime_error);
}

TEST(AigerIo, RejectsHugeMaxVariableBeforeAllocating) {
  // A 23-byte file claiming three billion variables and defining none:
  // sizing the translation tables from M alone would take gigabytes.
  const std::string error = parse_error("aag 3000000000 0 0 0 0\n");
  EXPECT_NE(error.find("M > I+L+A"), std::string::npos) << error;
}

TEST(AigerIo, RejectsOverflowingSectionCounts) {
  // I + L wraps around 2^64 to 1, which would satisfy M >= I+L.
  const std::string error =
      parse_error("aag 1 18446744073709551615 2 0 0\n2\n");
  EXPECT_NE(error.find("bytes that follow"), std::string::npos) << error;
}

TEST(AigerIo, RejectsBinaryCountsBeyondPayload) {
  // M = I+L+A holds, but a billion latches and two billion gates cannot fit
  // in a two-byte payload.
  const std::string error =
      parse_error("aig 3000000000 0 1000000000 0 2000000000\n2\n");
  EXPECT_NE(error.find("bytes that follow"), std::string::npos) << error;
  // Binary inputs are implicit, so they are capped per payload byte.
  EXPECT_NE(parse_error("aig 3000000000 3000000000 0 0 0\n").find("inputs"),
            std::string::npos);
  // A small input-only circuit is still fine.
  EXPECT_EQ(parse_error("aig 3 3 0 0 0\n"), "");
}

TEST(AigerIo, RejectsCombinationalLoopInAscii) {
  // 4 depends on 6, 6 depends on 4.
  EXPECT_NE(parse_error("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n")
                .find("combinational cycle"),
            std::string::npos);
}

TEST(AigerIo, BinaryVarintBoundary) {
  // A circuit wide enough to need multi-byte varint deltas.
  Aig a;
  std::vector<AigLit> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(a.add_input());
  AigLit acc = xs[0];
  for (int i = 1; i < 40; ++i) acc = a.make_and(acc, xs[i]);
  a.add_output(acc);
  const Aig back = read_aiger_string(to_aiger_binary(a));
  expect_equivalent(a, back, 999);
}

TEST(AigerIo, FileRoundTrip) {
  const circuits::CircuitCase cc = circuits::counter_unsafe(5, 17);
  const std::string path_aag = "/tmp/pilot_test_roundtrip.aag";
  const std::string path_aig = "/tmp/pilot_test_roundtrip.aig";
  write_aiger_file(cc.aig, path_aag);
  write_aiger_file(cc.aig, path_aig);
  expect_equivalent(read_aiger_file(path_aag), read_aiger_file(path_aig), 1);
}

}  // namespace
}  // namespace pilot::aig
