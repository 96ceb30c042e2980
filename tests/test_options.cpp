/// Option-parser, timer/deadline, and RNG utility tests.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pilot {
namespace {

TEST(OptionParser, ParsesTypedFlags) {
  bool flag = false;
  std::int64_t count = 0;
  double ratio = 0.0;
  std::string name;
  OptionParser p("test");
  p.add_flag("verbose", &flag, "");
  p.add_int("count", &count, "");
  p.add_double("ratio", &ratio, "");
  p.add_string("name", &name, "");
  const char* argv[] = {"prog",    "--verbose", "--count", "42",
                        "--ratio", "0.5",       "--name",  "abc"};
  ASSERT_TRUE(p.parse(8, argv));
  EXPECT_TRUE(flag);
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
  EXPECT_EQ(name, "abc");
}

TEST(OptionParser, ListOptionCollectsEveryOccurrence) {
  std::vector<std::string> items;
  OptionParser p("test");
  p.add_list("set", &items, "");
  const char* argv[] = {"prog", "--set", "a=1", "model.aag", "--set=b=2"};
  ASSERT_TRUE(p.parse(5, argv));
  const std::vector<std::string> want = {"a=1", "b=2"};
  EXPECT_EQ(items, want);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "model.aag");
}

TEST(OptionParser, NoPrefixDisablesFlag) {
  bool flag = true;
  OptionParser p("test");
  p.add_flag("verify", &flag, "");
  const char* argv[] = {"prog", "--no-verify"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_FALSE(flag);
}

TEST(OptionParser, OptDoubleBareUsesDefaultAndNeverEatsPositionals) {
  double secs = 0.0;
  OptionParser p("test");
  p.add_opt_double("progress", &secs, 2.0, "");
  // Bare `--progress` takes the bare value and the following token stays a
  // positional (the whole point of the opt-double kind).
  const char* argv[] = {"prog", "--progress", "model.aag"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(secs, 2.0);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "model.aag");
}

TEST(OptionParser, OptDoubleEqualsValue) {
  double secs = 0.0;
  OptionParser p("test");
  p.add_opt_double("progress", &secs, 2.0, "");
  const char* argv[] = {"prog", "--progress=0.5"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_DOUBLE_EQ(secs, 0.5);

  double secs2 = 0.0;
  OptionParser p2("test");
  p2.add_opt_double("progress", &secs2, 2.0, "");
  const char* bad[] = {"prog", "--progress=abc"};
  EXPECT_FALSE(p2.parse(2, bad));
}

TEST(OptionParser, EqualsSyntax) {
  std::int64_t n = 0;
  OptionParser p("test");
  p.add_int("n", &n, "");
  const char* argv[] = {"prog", "--n=17"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(n, 17);
}

TEST(OptionParser, ChoiceValidation) {
  std::string mode = "a";
  OptionParser p("test");
  p.add_choice("mode", &mode, {"a", "b"}, "");
  const char* good[] = {"prog", "--mode", "b"};
  ASSERT_TRUE(p.parse(3, good));
  EXPECT_EQ(mode, "b");
  const char* bad[] = {"prog", "--mode", "z"};
  OptionParser p2("test");
  p2.add_choice("mode", &mode, {"a", "b"}, "");
  EXPECT_FALSE(p2.parse(3, bad));
}

TEST(OptionParser, CollectsPositionals) {
  OptionParser p("test");
  const char* argv[] = {"prog", "one", "two"};
  ASSERT_TRUE(p.parse(3, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "one");
}

TEST(OptionParser, RejectsUnknownOption) {
  OptionParser p("test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(OptionParser, MissingValueFails) {
  std::int64_t n = 0;
  OptionParser p("test");
  p.add_int("n", &n, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(Deadline, ExpiresAfterBudget) {
  const Deadline d = Deadline::in_milliseconds(5);
  EXPECT_FALSE(d.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.milliseconds(), 8.0);
  t.reset();
  EXPECT_LT(t.milliseconds(), 8.0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool diverged = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_GT(seen[i], 700) << "value " << i << " under-represented";
  }
}

TEST(Rng, ChanceRespectsProbabilityGrossly)  {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

}  // namespace
}  // namespace pilot
