/// Certificate subsystem tests: emission from engine verdicts, text
/// round-tripping with token-naming parse errors, independent-checker
/// accept/reject behavior (including hand-corrupted certificates), the
/// self-contained AIGER certificate circuit, and the portfolio's
/// fault-injection path — a lying backend must be quarantined while the
/// race still returns the correct certified verdict.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "corpus/corpus.hpp"
#include "engine/backend.hpp"
#include "engine/portfolio.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "ts/unroller.hpp"

namespace pilot::cert {
namespace {

check::CheckResult solve(const aig::Aig& a, const std::string& spec) {
  check::CheckOptions co;
  co.engine_spec = spec;
  co.budget_ms = 60000;
  co.verify_witness = true;
  return check::check_aig(a, co);
}

std::optional<Certificate> emit(const ts::TransitionSystem& ts,
                                const check::CheckResult& r,
                                std::string* why = nullptr) {
  std::string local;
  return from_verdict(ts, r.verdict, r.invariant, r.trace, r.kind_k,
                      r.kind_simple_path, /*property_index=*/0,
                      why != nullptr ? why : &local);
}

TEST(Cert, InvariantCertRoundTripsAndChecks) {
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "ic3-ctg");
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  ASSERT_TRUE(r.invariant.has_value());

  const std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->kind, Certificate::Kind::kInvariant);
  EXPECT_EQ(cert->num_latches, ts.num_latches());
  const CheckOutcome ok = check(ts, *cert, /*seed=*/7);
  EXPECT_TRUE(ok.ok) << ok.reason;

  // Text round trip: parse(to_text(c)) reproduces every field and the
  // parsed form still checks.
  std::string error;
  const std::optional<Certificate> parsed = parse(to_text(*cert), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->kind, cert->kind);
  EXPECT_EQ(parsed->property_index, cert->property_index);
  EXPECT_EQ(parsed->num_latches, cert->num_latches);
  EXPECT_EQ(parsed->clauses, cert->clauses);
  EXPECT_TRUE(check(ts, *parsed, /*seed=*/11).ok);
}

TEST(Cert, HandCorruptedInvariantCertRejected) {
  const auto cc = circuits::token_ring_safe(3);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "ic3-ctg");
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());

  // (l0) ∧ (¬l0) admits no state at all: initiation must fail, loudly.
  cert->clauses = {{1}, {-1}};
  const CheckOutcome out = check(ts, *cert);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.reason.find("initiation"), std::string::npos) << out.reason;

  // A latch-count mismatch is rejected before any solving.
  std::optional<Certificate> wrong = emit(ts, r);
  wrong->num_latches += 1;
  EXPECT_FALSE(check(ts, *wrong).ok);
}

TEST(Cert, CertificateCircuitBadsAreUnsatisfiable) {
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "ic3-ctg");
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  const std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());

  const aig::Aig circuit = certificate_circuit(ts, *cert);
  ASSERT_EQ(circuit.bads().size(), 3u);
  EXPECT_EQ(circuit.num_latches(), 0u);  // purely combinational
  for (std::size_t i = 0; i < circuit.bads().size(); ++i) {
    const ts::TransitionSystem cts =
        ts::TransitionSystem::from_aig(circuit, i);
    sat::Solver solver;
    ts::Unroller un(cts, solver, /*assert_init=*/false);
    un.extend_to(0);
    EXPECT_EQ(solver.solve(std::vector<sat::Lit>{un.bad(0)}),
              sat::SolveResult::kUnsat)
        << "certificate-circuit bad output " << i << " is satisfiable";
  }

  // A corrupted certificate's circuit must NOT discharge: with the
  // contradictory invariant (l0)∧(¬l0), Init ∧ ¬Inv is exactly Init.
  Certificate bogus = *cert;
  bogus.clauses = {{1}, {-1}};
  const aig::Aig bad_circuit = certificate_circuit(ts, bogus);
  const ts::TransitionSystem bts =
      ts::TransitionSystem::from_aig(bad_circuit, 0);
  sat::Solver solver;
  ts::Unroller un(bts, solver, /*assert_init=*/false);
  un.extend_to(0);
  EXPECT_EQ(solver.solve(std::vector<sat::Lit>{un.bad(0)}),
            sat::SolveResult::kSat);
  EXPECT_THROW((void)certificate_circuit(
                   ts, from_kinduction(ts, 1, true)),
               std::invalid_argument);
}

TEST(Cert, KinductionCertChecksAndWrongBoundRejected) {
  const auto cc = circuits::shift_register(6, /*constrain_input_zero=*/true);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "kind");
  ASSERT_EQ(r.verdict, ic3::Verdict::kSafe);
  ASSERT_GE(r.kind_k, 0);

  std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->kind, Certificate::Kind::kKinduction);
  const CheckOutcome ok = check(ts, *cert, /*seed=*/3);
  EXPECT_TRUE(ok.ok) << ok.reason;

  // The shift register is not 0-inductive: a state with the second-to-last
  // stage set reaches bad in one step, so the shrunken bound must fail.
  cert->k = 0;
  const CheckOutcome rejected = check(ts, *cert);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.reason.find("step case"), std::string::npos)
      << rejected.reason;
}

TEST(Cert, WitnessCertReplaysAndCorruptionsRejected) {
  const auto cc = circuits::counter_unsafe(4, 9);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "bmc");
  ASSERT_EQ(r.verdict, ic3::Verdict::kUnsafe);
  ASSERT_TRUE(r.trace.has_value());

  const std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->kind, Certificate::Kind::kWitness);
  const CheckOutcome ok = check(ts, *cert);
  EXPECT_TRUE(ok.ok) << ok.reason;

  // Corrupting the initial state must be caught even though the replay
  // itself would still "work": a trace from a non-initial state proves
  // nothing.  The counter resets to all-zero; force latch 0 high.
  {
    Certificate c = *cert;
    const std::size_t latch_line = c.witness.find('\n', 0) + 1;
    const std::size_t start = c.witness.find('\n', latch_line) + 1;
    ASSERT_EQ(c.witness[start], '0');
    c.witness[start] = '1';
    const CheckOutcome out = check(ts, c);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.reason.find("reset value"), std::string::npos)
        << out.reason;
  }
  // Dropping the last input frame leaves the counter one short of the
  // target, so the bad signal never rises.
  {
    Certificate c = *cert;
    const std::size_t dot = c.witness.rfind("\n.");
    const std::size_t prev = c.witness.rfind('\n', dot - 1);
    c.witness = c.witness.substr(0, prev) + c.witness.substr(dot);
    const CheckOutcome out = check(ts, c);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.reason.find("bad signal"), std::string::npos)
        << out.reason;
  }
  // Truncating the trailing "." is a layout error, named as such.
  {
    Certificate c = *cert;
    c.witness = c.witness.substr(0, c.witness.rfind("\n."));
    EXPECT_FALSE(check(ts, c).ok);
  }
}

TEST(Cert, ParseErrorsNameTheOffendingToken) {
  std::string error;
  EXPECT_FALSE(parse("pilot-cert v2\nkind invariant\n", &error).has_value());
  EXPECT_NE(error.find("pilot-cert v2"), std::string::npos) << error;

  EXPECT_FALSE(parse("pilot-cert v1\nkind sorcery\nproperty 0\nlatches 1\n",
                     &error)
                   .has_value());
  EXPECT_NE(error.find("sorcery"), std::string::npos) << error;

  // A clause-count lie is caught with the expected count in the message.
  EXPECT_FALSE(parse("pilot-cert v1\nkind invariant\nproperty 0\n"
                     "latches 2\nclauses 3\n1 2\n",
                     &error)
                   .has_value());
  EXPECT_NE(error.find("3"), std::string::npos) << error;
}

TEST(Cert, SaveLoadRoundTrips) {
  const auto cc = circuits::counter_unsafe(3, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const check::CheckResult r = solve(cc.aig, "bmc");
  ASSERT_EQ(r.verdict, ic3::Verdict::kUnsafe);
  const std::optional<Certificate> cert = emit(ts, r);
  ASSERT_TRUE(cert.has_value());

  const std::string path = ::testing::TempDir() + "pilot_test_cert.cert";
  ASSERT_TRUE(save(*cert, path));
  std::string error;
  const std::optional<Certificate> loaded = load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->witness, cert->witness);
  EXPECT_TRUE(check(ts, *loaded).ok);

  EXPECT_FALSE(load(path + ".does-not-exist", &error).has_value());
  EXPECT_FALSE(error.empty());
}

#ifdef PILOT_TEST_CORPUS_DIR
TEST(Cert, FixtureCorpusVerdictsAllCertify) {
  // Every definitive verdict over the checked-in fixture corpus must
  // certify — SAFE cases through the invariant path, UNSAFE through the
  // witness replay — and a hand-corrupted certificate must be rejected.
  const std::vector<corpus::Case> cases =
      corpus::resolve_corpus(PILOT_TEST_CORPUS_DIR);
  ASSERT_FALSE(cases.empty());
  std::size_t certified = 0;
  for (const corpus::Case& c : cases) {
    const aig::Aig model = c.load();
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(model);
    const check::CheckResult r = solve(model, "ic3-ctg");
    if (r.verdict == ic3::Verdict::kUnknown) continue;
    std::string why;
    const std::optional<Certificate> cert = emit(ts, r, &why);
    ASSERT_TRUE(cert.has_value()) << c.name << ": " << why;
    const CheckOutcome ok = check(ts, *cert, /*seed=*/42);
    EXPECT_TRUE(ok.ok) << c.name << ": " << ok.reason;
    ++certified;

    if (cert->kind == Certificate::Kind::kInvariant) {
      Certificate bogus = *cert;
      bogus.clauses = {{1}, {-1}};
      EXPECT_FALSE(check(ts, bogus).ok) << c.name;
    }
  }
  EXPECT_GE(certified, 3u);  // the fixture corpus has 3 solvable cases
}
#endif

// --- portfolio fault injection ----------------------------------------------

/// A backend that always claims SAFE.  "bare" carries no payload at all;
/// "bogus" fabricates a one-clause invariant ("latch 0 is never 1") that
/// the independent checker must refute on any circuit where latch 0 can
/// rise.  Registered once per process.
class LyingBackend final : public engine::Backend {
 public:
  LyingBackend(std::string name, const ts::TransitionSystem& ts, bool bogus)
      : name_(std::move(name)) {
    if (bogus && ts.num_latches() > 0) {
      ic3::InductiveInvariant inv;
      inv.lemma_cubes.push_back(ic3::Cube::from_lits(
          {sat::Lit::make(ts.state_var(0), /*sign=*/false)}));
      invariant_ = std::move(inv);
    }
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  engine::EngineResult check(const Deadline&, const CancelToken*) override {
    engine::EngineResult r;
    r.verdict = ic3::Verdict::kSafe;
    r.invariant = invariant_;
    return r;
  }

 private:
  std::string name_;
  std::optional<ic3::InductiveInvariant> invariant_;
};

/// A backend that claims UNSAFE on shift_register(4, true) with a trace
/// that drives the input high at step 0.  The 1 reaches the last stage
/// four steps later and raises the bad cone, but the input is constrained
/// to 0, so the trace leaves the constrained state space at step 0.
class ConstraintBreakingBackend final : public engine::Backend {
 public:
  explicit ConstraintBreakingBackend(const ts::TransitionSystem& ts) {
    for (int step = 0; step < 5; ++step) {
      trace_.states.push_back(ic3::Cube{});
      trace_.inputs.push_back({});
    }
    trace_.inputs[0].push_back(sat::Lit::make(ts.input_var(0)));
  }
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "lying-unsafe-constraint";
    return kName;
  }
  engine::EngineResult check(const Deadline&, const CancelToken*) override {
    engine::EngineResult r;
    r.verdict = ic3::Verdict::kUnsafe;
    r.trace = trace_;
    return r;
  }

 private:
  ic3::Trace trace_;
};

void register_liars() {
  static const bool once = [] {
    engine::register_backend(
        "lying-unsafe-constraint",
        [](const ts::TransitionSystem& ts, const engine::BackendContext&) {
          return std::make_unique<ConstraintBreakingBackend>(ts);
        });
    engine::register_backend(
        "lying-safe-bare",
        [](const ts::TransitionSystem& ts, const engine::BackendContext&) {
          return std::make_unique<LyingBackend>("lying-safe-bare", ts,
                                                /*bogus=*/false);
        });
    engine::register_backend(
        "lying-safe-bogus",
        [](const ts::TransitionSystem& ts, const engine::BackendContext&) {
          return std::make_unique<LyingBackend>("lying-safe-bogus", ts,
                                                /*bogus=*/true);
        });
    return true;
  }();
  (void)once;
}

TEST(PortfolioQuarantine, LyingBackendQuarantinedRaceReturnsTruth) {
  register_liars();
  // Both liars race BMC on an unsafe counter whose bit 0 toggles: the bare
  // liar fails from_verdict (SAFE without payload), the bogus one fails the
  // consecution check, and the race must still return certified UNSAFE.
  const auto cc = circuits::counter_unsafe(4, 9);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  engine::PortfolioOptions po;
  po.backends = {"lying-safe-bare", "lying-safe-bogus", "bmc"};
  po.certify = true;
  const engine::PortfolioResult pr = engine::run_portfolio(ts, po);

  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kUnsafe);
  EXPECT_EQ(pr.winner, "bmc");
  ASSERT_EQ(pr.timings.size(), 3u);
  for (const engine::BackendTiming& t : pr.timings) {
    if (t.name == "bmc") {
      EXPECT_TRUE(t.winner);
      EXPECT_FALSE(t.quarantined);
    } else {
      EXPECT_FALSE(t.winner);
      EXPECT_TRUE(t.quarantined) << t.name;
      EXPECT_FALSE(t.quarantine_reason.empty()) << t.name;
      // The lie was recorded, not raced: the verdict column still shows
      // what the backend claimed.
      EXPECT_EQ(t.verdict, ic3::Verdict::kSafe);
    }
  }
  EXPECT_GE(pr.result.stats.num_cert_checks, 1u);
}

TEST(PortfolioQuarantine, AllBackendsQuarantinedReturnsUnknown) {
  register_liars();
  const auto cc = circuits::counter_unsafe(3, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  engine::PortfolioOptions po;
  po.backends = {"lying-safe-bare", "lying-safe-bogus"};
  po.certify = true;
  const engine::PortfolioResult pr = engine::run_portfolio(ts, po);

  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kUnknown);
  EXPECT_TRUE(pr.winner.empty());
  for (const engine::BackendTiming& t : pr.timings) {
    EXPECT_TRUE(t.quarantined) << t.name;
  }
}

TEST(PortfolioQuarantine, CertifyOffAcceptsTheLie) {
  register_liars();
  // The gate, not the race, is what catches the lie: with certification
  // off the bogus SAFE wins.  (This is exactly why the default is on.)
  const auto cc = circuits::counter_unsafe(3, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  engine::PortfolioOptions po;
  po.backends = {"lying-safe-bare"};
  po.certify = false;
  const engine::PortfolioResult pr = engine::run_portfolio(ts, po);
  EXPECT_EQ(pr.result.verdict, ic3::Verdict::kSafe);
  EXPECT_EQ(pr.winner, "lying-safe-bare");
}

// --- check_ts certification ------------------------------------------------

TEST(CheckTsCertify, ConstraintBreakingTraceIsRejected) {
  register_liars();
  const auto cc = circuits::shift_register(4, /*constrain_input_zero=*/true);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  check::CheckOptions co;
  co.engine_spec = "lying-unsafe-constraint";
  const check::CheckResult r = check::check_ts(ts, co);
  EXPECT_EQ(r.verdict, ic3::Verdict::kUnsafe);
  EXPECT_FALSE(r.witness_checked);
  EXPECT_NE(r.witness_error.find("constraint at step 0"), std::string::npos)
      << r.witness_error;
  EXPECT_EQ(r.stats.num_cert_checks, 1u);
  EXPECT_EQ(r.stats.num_cert_failures, 1u);
}

TEST(CheckTsCertify, VerdictWithoutPayloadIsRejected) {
  register_liars();
  const auto cc = circuits::counter_unsafe(3, 5);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  check::CheckOptions co;
  co.engine_spec = "lying-safe-bare";
  const check::CheckResult r = check::check_ts(ts, co);
  EXPECT_EQ(r.verdict, ic3::Verdict::kSafe);
  EXPECT_FALSE(r.witness_checked);
  EXPECT_FALSE(r.certificate.has_value());
  EXPECT_NE(r.witness_error.find("neither"), std::string::npos)
      << r.witness_error;
}

}  // namespace
}  // namespace pilot::cert
