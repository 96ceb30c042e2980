/// Serving-layer tests ("pilot-serve"): the canonical AIG hash that keys
/// the verdict cache, revalidate-before-serve cache semantics (a corrupted
/// certificate must surface as a miss, never as a served verdict), the
/// deterministic shard partition and its merge-equivalence, the warm-rerun
/// acceptance bar (every case a revalidated hit, an order of magnitude
/// faster than solving), and an in-process Unix-socket server round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "check/runner.hpp"
#include "circuits/families.hpp"
#include "circuits/suite.hpp"
#include "corpus/corpus.hpp"
#include "corpus/results_db.hpp"
#include "serve/server.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"

namespace pilot {
namespace {

using serve::CacheEntry;
using serve::VerdictCache;

// ----- canonical hash --------------------------------------------------------

// One hand-written circuit in three textual disguises: bare, and with a
// symbol table plus comment section appended.  Parsed structure is
// identical, so the canonical hash must collide even though the raw bytes
// (the parse-cache key) differ.
constexpr const char* kPlainAag = "aag 4 1 1 1 2\n2\n4 8\n4\n6 2 4\n8 6 6\n";
constexpr const char* kDecoratedAag =
    "aag 4 1 1 1 2\n2\n4 8\n4\n6 2 4\n8 6 6\n"
    "i0 request\nl0 grant\no0 bad\n"
    "c\nhand-rewritten copy; structure unchanged\n";
// Same shape, one gate's fanin negated — a single structural edit.
constexpr const char* kEditedAag = "aag 4 1 1 1 2\n2\n4 8\n4\n6 2 4\n8 6 7\n";

TEST(CanonicalHash, CommentAndSymbolVariantsCollide) {
  const aig::Aig plain = aig::read_aiger_string(kPlainAag);
  const aig::Aig decorated = aig::read_aiger_string(kDecoratedAag);
  EXPECT_EQ(aig::canonical_hash(plain), aig::canonical_hash(decorated));
  EXPECT_EQ(aig::canonical_hash_hex(plain),
            aig::canonical_hash_hex(decorated));
  EXPECT_EQ(aig::canonical_hash_hex(plain).size(), 16u);
}

TEST(CanonicalHash, SingleGateEditChangesHash) {
  const aig::Aig plain = aig::read_aiger_string(kPlainAag);
  const aig::Aig edited = aig::read_aiger_string(kEditedAag);
  EXPECT_NE(aig::canonical_hash(plain), aig::canonical_hash(edited));
}

TEST(CanonicalHash, RoundTripThroughAigerTextIsStable) {
  const auto cc = circuits::token_ring_safe(5);
  const aig::Aig reread =
      aig::read_aiger_string(aig::to_aiger_ascii(cc.aig));
  EXPECT_EQ(aig::canonical_hash(cc.aig), aig::canonical_hash(reread));
}

TEST(CanonicalHash, DistinguishesSuiteCircuits) {
  std::set<std::uint64_t> hashes;
  const auto cases = circuits::make_suite(circuits::SuiteSize::kTiny);
  for (const auto& cc : cases) hashes.insert(aig::canonical_hash(cc.aig));
  EXPECT_EQ(hashes.size(), cases.size());
}

// ----- verdict cache ---------------------------------------------------------

/// Solves `cc` and returns a fully-populated cache entry whose certificate
/// independently re-checks.
CacheEntry solved_entry(const circuits::CircuitCase& cc,
                        const std::string& spec = "ic3-ctg") {
  check::CheckOptions co;
  co.engine_spec = spec;
  co.budget_ms = 60000;
  const check::CheckResult r = check::check_aig(cc.aig, co);
  EXPECT_TRUE(r.witness_checked) << r.witness_error;
  CacheEntry e;
  e.hash = aig::canonical_hash_hex(cc.aig);
  e.verdict = r.verdict;
  e.engine = spec;
  e.seconds = r.seconds;
  e.frames = r.frames;
  e.cert_text = cert::to_text(*r.certificate);
  e.case_name = cc.name;
  e.timestamp = "2026-01-01T00:00:00Z";
  return e;
}

TEST(VerdictCache, HitIsBitIdenticalAndCountsOneRevalidation) {
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig, 0);
  const CacheEntry stored = solved_entry(cc);

  VerdictCache cache;
  ASSERT_TRUE(cache.store(stored));
  const std::optional<CacheEntry> hit = cache.lookup(stored.hash, ts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, stored.verdict);
  EXPECT_EQ(hit->engine, stored.engine);
  EXPECT_EQ(hit->frames, stored.frames);
  EXPECT_EQ(hit->cert_text, stored.cert_text);  // bit-identical certificate
  EXPECT_EQ(hit->case_name, stored.case_name);

  EXPECT_EQ(cache.stats().lookups.load(), 1u);
  EXPECT_EQ(cache.stats().hits.load(), 1u);
  EXPECT_EQ(cache.stats().misses.load(), 0u);
  EXPECT_EQ(cache.stats().revalidations.load(), 1u);
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 0u);

  EXPECT_FALSE(cache.lookup("0000000000000000", ts).has_value());
  EXPECT_EQ(cache.stats().misses.load(), 1u);
}

TEST(VerdictCache, CorruptedCertificateIsAMissAndNeverServed) {
  const auto safe = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(safe.aig, 0);

  // A poisoned entry: the safe circuit's hash, but garbage certificate
  // text (a truncated/corrupted cache file, or a hash collision).
  CacheEntry poisoned = solved_entry(safe);
  poisoned.cert_text = "pilot-cert v1\nkind invariant\ncorrupted beyond";

  VerdictCache cache;
  ASSERT_TRUE(cache.store(poisoned));
  EXPECT_FALSE(cache.lookup(poisoned.hash, ts).has_value());
  EXPECT_EQ(cache.stats().hits.load(), 0u);
  EXPECT_EQ(cache.stats().misses.load(), 1u);
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 1u);
  // The poisoned entry was dropped: the retry is a plain miss with no
  // second revalidation attempt.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(poisoned.hash, ts).has_value());
  EXPECT_EQ(cache.stats().revalidations.load(), 1u);
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 1u);
}

TEST(VerdictCache, WrongCircuitsCertificateFailsRevalidation) {
  // A *valid* certificate for circuit A stored under circuit B's hash (the
  // worst-case canonical-hash collision): revalidation against B's
  // transition system must reject it.
  const auto a = circuits::token_ring_safe(4);
  const auto b = circuits::counter_wrap_safe(5, 9, 20);
  const ts::TransitionSystem ts_b = ts::TransitionSystem::from_aig(b.aig, 0);
  CacheEntry crossed = solved_entry(a);
  crossed.hash = aig::canonical_hash_hex(b.aig);

  VerdictCache cache;
  ASSERT_TRUE(cache.store(crossed));
  EXPECT_FALSE(cache.lookup(crossed.hash, ts_b).has_value());
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 1u);
}

TEST(VerdictCache, RejectsUnknownVerdictsAndEmptyFields) {
  VerdictCache cache;
  CacheEntry e;
  e.hash = "abc";
  e.cert_text = "x";
  e.verdict = ic3::Verdict::kUnknown;
  EXPECT_FALSE(cache.store(e));  // UNKNOWN is not cacheable
  e.verdict = ic3::Verdict::kSafe;
  e.cert_text.clear();
  EXPECT_FALSE(cache.store(e));  // no certificate, nothing to revalidate
  e.cert_text = "x";
  e.hash.clear();
  EXPECT_FALSE(cache.store(e));  // no key
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCache, FileBackedEntriesSurviveReload) {
  const std::string path = testing::TempDir() + "pilot_cache_reload.jsonl";
  std::remove(path.c_str());
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig, 0);
  const CacheEntry stored = solved_entry(cc);
  {
    VerdictCache cache(path);
    EXPECT_EQ(cache.size(), 0u);  // missing file = empty cache
    ASSERT_TRUE(cache.store(stored));
  }
  VerdictCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 1u);
  const std::optional<CacheEntry> hit = reloaded.lookup(stored.hash, ts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, stored.verdict);
  EXPECT_EQ(hit->cert_text, stored.cert_text);
  std::remove(path.c_str());
}

TEST(VerdictCache, TornTailIsSkippedAndTheNextStoreStartsAFreshLine) {
  // A writer killed mid-append leaves a final line with no newline.  The
  // cache must still load, skip (and count) that line, and cut it off
  // before its next append, so the file stays loadable after a restart.
  const std::string path = testing::TempDir() + "pilot_cache_torn.jsonl";
  const auto ring = circuits::token_ring_safe(4);
  const auto counter = circuits::counter_unsafe(3, 5);
  const CacheEntry kept = solved_entry(ring);
  const CacheEntry torn = solved_entry(counter);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string torn_line = cache_entry_to_json(torn);
    out << cache_entry_to_json(kept) << "\n"
        << torn_line.substr(0, torn_line.size() - 5);
  }
  {
    VerdictCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.torn_lines(), 1u);
    ASSERT_TRUE(cache.store(torn));
  }
  VerdictCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.torn_lines(), 0u);
  const ts::TransitionSystem ts =
      ts::TransitionSystem::from_aig(counter.aig, 0);
  EXPECT_TRUE(reloaded.lookup(torn.hash, ts).has_value());

  // Corruption before the last line is still an error.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{not json}\n" << cache_entry_to_json(kept) << "\n";
  }
  EXPECT_THROW({ VerdictCache broken(path); }, std::runtime_error);
  std::remove(path.c_str());
}

TEST(VerdictCache, EntryJsonRoundTrips) {
  CacheEntry e;
  e.hash = "13f5ebb741c39d12";
  e.verdict = ic3::Verdict::kUnsafe;
  e.engine = "bmc";
  e.seconds = 0.125;
  e.frames = 7;
  e.cert_text = "pilot-cert v1\nkind witness\n...";
  e.case_name = "counter10";
  e.timestamp = "2026-01-01T00:00:00Z";
  const CacheEntry back =
      serve::cache_entry_from_json_line(serve::cache_entry_to_json(e));
  EXPECT_EQ(back.hash, e.hash);
  EXPECT_EQ(back.verdict, e.verdict);
  EXPECT_EQ(back.engine, e.engine);
  EXPECT_DOUBLE_EQ(back.seconds, e.seconds);
  EXPECT_EQ(back.frames, e.frames);
  EXPECT_EQ(back.cert_text, e.cert_text);
  EXPECT_EQ(back.case_name, e.case_name);
  EXPECT_EQ(back.timestamp, e.timestamp);
}

// ----- sharding --------------------------------------------------------------

TEST(ShardSpec, ParsesAndRejects) {
  const corpus::ShardSpec s = corpus::parse_shard_spec("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_THROW((void)corpus::parse_shard_spec(""), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("3"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("5/5"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("0/0"), std::invalid_argument);
  EXPECT_THROW((void)corpus::parse_shard_spec("a/b"), std::invalid_argument);
}

TEST(ShardCases, PartitionIsDisjointCompleteAndOrderIndependent) {
  const std::vector<corpus::Case> cases =
      corpus::suite_cases(circuits::SuiteSize::kTiny);
  ASSERT_FALSE(cases.empty());
  for (const std::size_t n : {2u, 3u, 5u}) {
    std::multiset<std::string> reassembled;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<corpus::Case> shard =
          corpus::shard_cases(cases, {i, n});
      for (const corpus::Case& c : shard) {
        reassembled.insert(c.name);
        EXPECT_TRUE(seen.insert(c.name).second)
            << c.name << " landed in two shards (n=" << n << ")";
      }
    }
    EXPECT_EQ(reassembled.size(), cases.size()) << "n=" << n;
  }

  // Membership is keyed by the case, not its position: a reversed corpus
  // shards identically.
  std::vector<corpus::Case> reversed(cases.rbegin(), cases.rend());
  const auto names = [](const std::vector<corpus::Case>& v) {
    std::set<std::string> out;
    for (const corpus::Case& c : v) out.insert(c.name);
    return out;
  };
  EXPECT_EQ(names(corpus::shard_cases(cases, {0, 3})),
            names(corpus::shard_cases(reversed, {0, 3})));
}

TEST(ShardCases, MergedShardCampaignMatchesUnsharded) {
  const std::vector<corpus::Case> cases =
      corpus::suite_cases(circuits::SuiteSize::kTiny);
  check::RunMatrixOptions mo;
  mo.budget_ms = 60000;
  mo.jobs = 2;
  mo.strict = false;
  const std::vector<check::RunRecord> all =
      check::run_matrix(cases, {"ic3-ctg"}, mo);

  corpus::ResultsDb merged;
  const corpus::RunContext ctx;
  for (const std::size_t i : {0u, 1u}) {
    const std::vector<check::RunRecord> part = check::run_matrix(
        corpus::shard_cases(cases, {i, 2}), {"ic3-ctg"}, mo);
    for (const check::RunRecord& r : part) merged.add({r, ctx});
  }
  merged.dedup();
  ASSERT_EQ(merged.rows().size(), all.size());
  std::map<std::string, ic3::Verdict> by_name;
  for (const corpus::RunRow& row : merged.rows()) {
    by_name[row.record.case_name] = row.record.verdict;
  }
  for (const check::RunRecord& r : all) {
    ASSERT_TRUE(by_name.count(r.case_name)) << r.case_name;
    EXPECT_EQ(by_name[r.case_name], r.verdict) << r.case_name;
  }
}

// ----- warm-rerun acceptance bar ---------------------------------------------

// A second campaign over the same corpus with a warm cache must serve every
// case as a revalidated hit and return identical verdicts without reaching
// the engine: no SAT solve and no proof obligation, only the one
// certificate re-check.  Counting work instead of timing it keeps the bar
// independent of solver speed and sanitizer slowdown; perfbench's
// serve-mixed workload measures how fast the warm path is.
TEST(VerdictCache, WarmRerunAllHitsIdenticalVerdictsWithoutEngineWork) {
  std::vector<corpus::Case> cases;
  cases.push_back(corpus::from_circuit(circuits::token_ring_safe(16)));
  cases.push_back(corpus::from_circuit(circuits::token_ring_safe(18)));
  cases.push_back(corpus::from_circuit(circuits::token_ring_safe(20)));
  cases.push_back(corpus::from_circuit(circuits::fifo_safe(6, 60)));

  VerdictCache cache;
  check::RunMatrixOptions mo;
  mo.budget_ms = 120000;
  mo.jobs = 1;
  mo.strict = false;
  mo.cache = &cache;

  const std::vector<check::RunRecord> cold =
      check::run_matrix(cases, {"ic3-ctg"}, mo);
  for (const check::RunRecord& r : cold) {
    EXPECT_EQ(r.cache_status, "miss") << r.case_name;
    EXPECT_TRUE(r.solved) << r.case_name;
    EXPECT_GT(r.stats.sat_solve_calls, 0u) << r.case_name;
  }
  ASSERT_EQ(cache.size(), cases.size());

  const std::vector<check::RunRecord> warm =
      check::run_matrix(cases, {"ic3-ctg"}, mo);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].cache_status, "hit") << warm[i].case_name;
    EXPECT_EQ(warm[i].verdict, cold[i].verdict) << warm[i].case_name;
    EXPECT_EQ(warm[i].frames, cold[i].frames) << warm[i].case_name;
    EXPECT_EQ(warm[i].stats.sat_solve_calls, 0u) << warm[i].case_name;
    EXPECT_EQ(warm[i].stats.num_obligations, 0u) << warm[i].case_name;
    EXPECT_EQ(warm[i].stats.num_cert_checks, 1u) << warm[i].case_name;
  }
  EXPECT_EQ(cache.stats().hits.load(), cases.size());
  EXPECT_EQ(cache.stats().revalidations.load(), cases.size());
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 0u);
}

// ----- server round trip -----------------------------------------------------

TEST(Server, RoundTripCachesSecondRequestAndDrains) {
  const std::string socket_path = testing::TempDir() + "pilot_serve_test.sock";
  VerdictCache cache;
  serve::ServerOptions so;
  so.socket_path = socket_path;
  so.engine_spec = "ic3-ctg";
  so.budget_ms = 60000;
  so.queue_capacity = 4;
  so.workers = 2;
  so.cache = &cache;
  serve::Server server(std::move(so));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string aiger =
      aig::to_aiger_ascii(circuits::token_ring_safe(4).aig);
  const std::string request = serve::make_check_request(aiger);

  std::optional<std::string> resp =
      serve::client_request(socket_path, "ping\n", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(*resp, "ok pong\n");

  resp = serve::client_request(socket_path, request, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_NE(resp->find("ok verdict=SAFE"), std::string::npos) << *resp;
  EXPECT_NE(resp->find("cached=0"), std::string::npos) << *resp;

  resp = serve::client_request(socket_path, request, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_NE(resp->find("ok verdict=SAFE"), std::string::npos) << *resp;
  EXPECT_NE(resp->find("cached=1"), std::string::npos) << *resp;

  resp = serve::client_request(socket_path, "stats\n", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_NE(resp->find("hits=1"), std::string::npos) << *resp;

  resp = serve::client_request(socket_path, "check 3\nxyz", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->rfind("error", 0), 0u) << *resp;  // malformed AIGER

  resp = serve::client_request(socket_path, "stop\n", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(*resp, "ok draining\n");
  server.wait();
  EXPECT_EQ(server.stats().served, 2u);  // the two good checks
  EXPECT_EQ(server.stats().errors, 1u);  // the malformed AIGER
  EXPECT_EQ(cache.stats().hits.load(), 1u);
  EXPECT_EQ(cache.stats().revalidation_failures.load(), 0u);
}

}  // namespace
}  // namespace pilot
