/// Lemma-exchange tests: hub semantics (per-peer cursors, dedup, capacity
/// cap), engine-side import validation (a garbage lemma must be rejected
/// by the relative-induction check, a sound one installed — and the
/// verdict plus certificate must stay correct either way), and the
/// portfolio determinism gate: 10 races per verdict class with exchange
/// enabled must produce identical verdicts with certifiable witnesses.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "engine/lemma_exchange.hpp"
#include "engine/portfolio.hpp"
#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"

namespace pilot::engine {
namespace {

ic3::Cube cube_of(std::initializer_list<ic3::Lit> lits) {
  return ic3::Cube::from_lits(std::vector<ic3::Lit>(lits));
}

TEST(LemmaExchangeHub, PeersSeeOthersLemmasExactlyOnce) {
  LemmaExchange hub;
  const std::size_t a = hub.add_peer();
  const std::size_t b = hub.add_peer();
  const std::size_t c = hub.add_peer();

  hub.publish(a, cube_of({ic3::Lit::make(ic3::Var{1})}), 2);
  hub.publish(b, cube_of({ic3::Lit::make(ic3::Var{2})}), 3);

  // a sees only b's lemma; b only a's; c both.
  const auto for_a = hub.poll(a);
  ASSERT_EQ(for_a.size(), 1u);
  EXPECT_EQ(for_a[0].level, 3u);
  const auto for_b = hub.poll(b);
  ASSERT_EQ(for_b.size(), 1u);
  EXPECT_EQ(for_b[0].level, 2u);
  EXPECT_EQ(hub.poll(c).size(), 2u);

  // Cursors advanced: nothing new → empty polls.
  EXPECT_TRUE(hub.poll(a).empty());
  EXPECT_TRUE(hub.poll(b).empty());
  EXPECT_TRUE(hub.poll(c).empty());

  // A later publish is delivered from the cursor on.
  hub.publish(c, cube_of({ic3::Lit::make(ic3::Var{3})}), 1);
  EXPECT_EQ(hub.poll(a).size(), 1u);
  EXPECT_EQ(hub.poll(b).size(), 1u);
  EXPECT_TRUE(hub.poll(c).empty());

  const LemmaExchangeStats stats = hub.stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.deduped, 0u);
  EXPECT_EQ(stats.delivered, 6u);
}

TEST(LemmaExchangeHub, DuplicateCubesCrossTheBusOnce) {
  LemmaExchange hub;
  const std::size_t a = hub.add_peer();
  const std::size_t b = hub.add_peer();
  const ic3::Cube c = cube_of({ic3::Lit::make(ic3::Var{1}, true)});
  hub.publish(a, c, 2);
  hub.publish(a, c, 5);  // same cube pushed to a higher level: deduped
  hub.publish(b, c, 3);  // independently rediscovered by the peer: deduped
  EXPECT_EQ(hub.size(), 1u);
  EXPECT_EQ(hub.stats().deduped, 2u);
  EXPECT_EQ(hub.poll(b).size(), 1u);
}

TEST(LemmaExchangeHub, CapacityCapDropsInsteadOfGrowing) {
  LemmaExchange hub(/*max_store=*/2);
  const std::size_t a = hub.add_peer();
  (void)hub.add_peer();
  for (std::int32_t i = 1; i <= 5; ++i) {
    hub.publish(a, cube_of({ic3::Lit::make(ic3::Var{i})}), 1);
  }
  EXPECT_EQ(hub.size(), 2u);
  EXPECT_EQ(hub.stats().dropped_capacity, 3u);
}

// ----- engine-side import validation -----------------------------------------

/// A scripted bus: serves a fixed set of lemmas on the first poll and
/// records what the engine publishes.
class ScriptedBus final : public ic3::LemmaBus {
 public:
  explicit ScriptedBus(std::vector<ic3::SharedLemma> serve)
      : serve_(std::move(serve)) {}

  void publish(const ic3::Cube& cube, std::size_t level) override {
    published_.push_back(ic3::SharedLemma{cube, level});
  }

  [[nodiscard]] std::vector<ic3::SharedLemma> poll() override {
    ++polls_;
    return std::exchange(serve_, {});
  }

  std::vector<ic3::SharedLemma> serve_;
  std::vector<ic3::SharedLemma> published_;
  std::size_t polls_ = 0;
};

TEST(LemmaExchangeImport, ValidatesBeforeInstallAndRejectsGarbage) {
  // Token ring with one token: "two tokens at once" cubes are sound
  // lemmas; a "token at position 0" cube blocks the *initial state* and a
  // "no token anywhere would stay bad" style cube is simply not inductive.
  const auto cc = circuits::token_ring_safe(6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);

  std::vector<ic3::SharedLemma> serve;
  // Sound: two tokens (positions 2 and 4) — mutually exclusive by
  // construction, inductive relative to any frame.
  serve.push_back(ic3::SharedLemma{
      cube_of({ic3::Lit::make(ts.state_var(2)),
               ic3::Lit::make(ts.state_var(4))}),
      1});
  // Garbage 1: intersects the initial states (token at 0 IS the init
  // state shape) — must be rejected by the initiation check.
  serve.push_back(ic3::SharedLemma{
      cube_of({ic3::Lit::make(ts.state_var(0))}), 1});
  // Garbage 2: "token at position 1" alone — the ring rotates a token
  // into position 1 from position 0, so ¬cube is not relative-inductive.
  serve.push_back(ic3::SharedLemma{
      cube_of({ic3::Lit::make(ts.state_var(1))}), 1});

  ScriptedBus bus(std::move(serve));
  ic3::Config cfg;
  cfg.lemma_bus = &bus;
  ic3::Engine engine(ts, cfg);
  const ic3::Result r = engine.check(Deadline::in_seconds(60));

  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  ASSERT_TRUE(r.invariant.has_value());
  EXPECT_TRUE(cert::check(ts, cert::from_invariant(ts, *r.invariant)).ok);
  EXPECT_GE(bus.polls_, 1u);
  // The sound lemma was imported (or was already subsumed — either way it
  // never counts as rejected); both garbage lemmas were rejected.
  EXPECT_EQ(r.stats.num_exchange_imported +
                r.stats.num_exchange_skipped,
            1u);
  EXPECT_EQ(r.stats.num_exchange_rejected, 2u);
  // The engine published its own lemmas to the bus as it installed them.
  EXPECT_GT(bus.published_.size(), 0u);
  EXPECT_EQ(r.stats.num_exchange_published, bus.published_.size());
}

TEST(LemmaExchangeImport, ImportedLemmasAreNotRepublished) {
  const auto cc = circuits::token_ring_safe(5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const ic3::Cube sound = cube_of({ic3::Lit::make(ts.state_var(1)),
                                   ic3::Lit::make(ts.state_var(3))});
  ScriptedBus bus({ic3::SharedLemma{sound, 1}});
  ic3::Config cfg;
  cfg.lemma_bus = &bus;
  ic3::Engine engine(ts, cfg);
  const ic3::Result r = engine.check(Deadline::in_seconds(60));
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  // Imports are installed with publishing suppressed, so every installed
  // lemma is counted exactly once: self-derived ones on the bus, imported
  // ones in the import counter.  (A ping-ponged import would make
  // published + imported exceed the installed-lemma count.)
  EXPECT_EQ(r.stats.num_lemmas,
            r.stats.num_exchange_published + r.stats.num_exchange_imported);
  EXPECT_EQ(bus.published_.size(), r.stats.num_exchange_published);
}

// ----- portfolio integration -------------------------------------------------

TEST(PortfolioExchange, RunsAndReportsTraffic) {
  const auto cc = circuits::token_ring_safe(6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  PortfolioOptions po;
  po.backends = {"ic3-ctg-pl", "ic3-down-pl", "ic3-dyn"};
  po.share_lemmas = true;
  const PortfolioResult pr = run_portfolio(ts, po, Deadline::in_seconds(60));
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kSafe);
  // Someone published; per-backend rows carry the traffic counters.
  std::uint64_t published = 0;
  for (const BackendTiming& t : pr.timings) published += t.lemmas_published;
  EXPECT_GT(published, 0u);
  EXPECT_GT(pr.exchange.published, 0u);
}

TEST(PortfolioExchange, VerdictDeterministicOverTenRacesSafe) {
  const auto cc = circuits::token_ring_safe(6);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  for (int round = 0; round < 10; ++round) {
    PortfolioOptions po;
    po.backends = {"ic3-ctg-pl", "ic3-down-pl", "ic3-dyn"};
    po.share_lemmas = true;
    const PortfolioResult pr =
        run_portfolio(ts, po, Deadline::in_seconds(60));
    ASSERT_EQ(pr.result.verdict, ic3::Verdict::kSafe) << "round " << round;
    ASSERT_FALSE(pr.winner.empty());
    if (pr.result.invariant.has_value()) {
      EXPECT_TRUE(
          cert::check(ts, cert::from_invariant(ts, *pr.result.invariant)).ok)
          << "round " << round << " winner " << pr.winner;
    }
  }
}

TEST(PortfolioExchange, VerdictDeterministicOverTenRacesUnsafe) {
  const auto cc = circuits::counter_unsafe(6, 10);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  for (int round = 0; round < 10; ++round) {
    PortfolioOptions po;
    po.backends = {"ic3-ctg-pl", "ic3-dyn", "bmc"};
    po.share_lemmas = true;
    const PortfolioResult pr =
        run_portfolio(ts, po, Deadline::in_seconds(60));
    ASSERT_EQ(pr.result.verdict, ic3::Verdict::kUnsafe) << "round " << round;
    ASSERT_TRUE(pr.result.trace.has_value());
    EXPECT_TRUE(cert::check(ts, cert::from_trace(ts, *pr.result.trace)).ok)
        << "round " << round << " winner " << pr.winner;
  }
}

}  // namespace
}  // namespace pilot::engine

namespace pilot::check {
namespace {

TEST(CheckerExchange, PortfolioXSpecEnablesExchange) {
  const auto cc = circuits::token_ring_safe(5);
  CheckOptions opts;
  opts.engine_spec = "portfolio-x:ic3-ctg-pl+ic3-dyn";
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  ASSERT_EQ(r.backend_timings.size(), 2u);
  std::uint64_t published = 0;
  for (const engine::BackendTiming& t : r.backend_timings) {
    published += t.lemmas_published;
  }
  EXPECT_GT(published, 0u);
  EXPECT_GT(r.exchange.published, 0u);
}

TEST(CheckerExchange, PlainPortfolioKeepsExchangeOff) {
  const auto cc = circuits::token_ring_safe(5);
  CheckOptions opts;
  opts.engine_spec = "portfolio:ic3-ctg-pl+ic3-dyn";
  const CheckResult r = check_aig(cc.aig, opts);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_EQ(r.exchange.published, 0u);
  for (const engine::BackendTiming& t : r.backend_timings) {
    EXPECT_EQ(t.lemmas_published, 0u);
  }
}

TEST(CheckerExchange, BadPortfolioXSpecThrowsWithNames) {
  const auto cc = circuits::mutex_safe();
  CheckOptions opts;
  opts.engine_spec = "portfolio-x:bmc+nope";
  try {
    (void)check_aig(cc.aig, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ic3-ctg-pl"), std::string::npos)
        << "registered names missing from: " << msg;
  }
}

}  // namespace
}  // namespace pilot::check
