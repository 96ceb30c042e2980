#include "check/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cert/certificate.hpp"
#include "corpus/results_db.hpp"
#include "engine/backend.hpp"
#include "engine/portfolio.hpp"
#include "ic3/gen_strategy.hpp"
#include "serve/advisor.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::check {

namespace {

/// Validates an engine spec against the registry before any thread spawns,
/// so a typo fails fast instead of mid-campaign.
void validate_engine_spec(const std::string& spec) {
  // Portfolio forms: match_portfolio_spec throws the shared
  // offending-token + registered-names message on a malformed list.
  if (engine::match_portfolio_spec(spec).has_value()) return;
  if (!engine::backend_registered(spec)) {
    throw std::invalid_argument("run_matrix: " +
                                engine::unknown_engine_message(spec));
  }
}

/// Per-case lazily materialized circuit, shared by all engine jobs of the
/// case so an on-disk AIGER file is parsed once, not once per engine.
struct LoadedCase {
  std::once_flag once;
  std::optional<aig::Aig> aig;
  std::string error;
};

/// Non-throwing spec validity probe for advisor recommendations: history
/// can name engines a different build no longer registers, and a stale
/// recommendation must degrade to "no advice", not kill the campaign.
bool spec_is_valid(const std::string& spec) {
  try {
    if (engine::match_portfolio_spec(spec).has_value()) return true;
    return engine::backend_registered(spec);
  } catch (const std::exception&) {
    return false;
  }
}

/// File-name-safe rendering of an engine spec ("portfolio:a+b" →
/// "portfolio-a-b") for certificate paths.
std::string sanitize_engine_spec(const std::string& spec) {
  std::string out = spec;
  for (char& c : out) {
    if (c == ':' || c == '+' || c == '/' || c == '\\') c = '-';
  }
  return out;
}

}  // namespace

std::vector<RunRecord> run_matrix(const std::vector<corpus::Case>& cases,
                                  const std::vector<std::string>& engines,
                                  const RunMatrixOptions& options) {
  for (const std::string& spec : engines) validate_engine_spec(spec);
  if (!options.gen_spec.empty()) ic3::validate_gen_spec(options.gen_spec);

  struct Job {
    std::size_t case_index;
    std::size_t engine_index;
  };
  std::vector<Job> jobs;
  jobs.reserve(cases.size() * engines.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::size_t e = 0; e < engines.size(); ++e) jobs.push_back({c, e});
  }

  // Largest-case-first (LPT) dispatch order: heterogeneous corpora mix
  // second-long and budget-long cases, and starting the big ones early
  // keeps every worker busy instead of leaving one thread grinding a giant
  // case after the rest of the queue drained.  `order` only permutes
  // dispatch; records keep the case-major job index, so output order is
  // deterministic and scheduler-independent.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cases[jobs[a].case_index].size_estimate >
                            cases[jobs[b].case_index].size_estimate;
                   });

  std::vector<LoadedCase> loaded(cases.size());
  std::vector<RunRecord> records(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> soundness_violated{false};

  auto worker = [&]() {
    for (;;) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= jobs.size()) return;
      const std::size_t j = order[slot];
      const Job& job = jobs[j];
      const corpus::Case& cc = cases[job.case_index];
      const std::string& spec = engines[job.engine_index];

      RunRecord rec;
      rec.case_name = cc.name;
      rec.family = cc.family;
      rec.tags = cc.tags;
      rec.engine = spec;
      rec.expected = cc.expected;

      if (options.cancel != nullptr && options.cancel->stop_requested()) {
        records[j] = std::move(rec);  // aborted: kUnknown, zero time
        continue;
      }

      LoadedCase& lc = loaded[job.case_index];
      std::call_once(lc.once, [&]() {
        try {
          lc.aig = cc.load();
        } catch (const std::exception& e) {
          lc.error = e.what();
        }
      });
      if (!lc.aig.has_value()) {
        rec.error = lc.error;
        records[j] = std::move(rec);
        continue;
      }

      // Canonical structure hash + shape features: the cache/advisor key,
      // recorded on every row so future campaigns become advisor history.
      rec.content_hash = aig::canonical_hash_hex(*lc.aig);
      rec.num_inputs = lc.aig->num_inputs();
      rec.num_latches = lc.aig->num_latches();
      rec.num_ands = lc.aig->num_ands();

      // One transition system per job serves the cache revalidation and
      // the engine run.
      const ts::TransitionSystem ts =
          ts::TransitionSystem::from_aig(*lc.aig, 0);

      // Tier 1 — verdict cache: a revalidated hit skips the engine
      // entirely; the record's time is the lookup + re-check cost.
      if (options.cache != nullptr) {
        Timer lookup_timer;
        const std::optional<serve::CacheEntry> hit =
            options.cache->lookup(rec.content_hash, ts, options.seed);
        if (hit.has_value()) {
          rec.verdict = hit->verdict;
          rec.solved = true;
          rec.seconds = lookup_timer.seconds();
          rec.frames = hit->frames;
          rec.cache_status = "hit";
          rec.cert_status = "ok";  // lookup() re-checked the certificate
          ++rec.stats.num_cert_checks;
          if (rec.solved && cc.expected != corpus::Expected::kUnknown) {
            const corpus::Expected got = corpus::expected_from_safe(
                rec.verdict == ic3::Verdict::kSafe);
            if (got != cc.expected) {
              std::fprintf(stderr,
                           "SOUNDNESS VIOLATION: %s served from cache as %s "
                           "but the case is expected %s\n",
                           cc.name.c_str(), ic3::to_string(rec.verdict),
                           corpus::to_string(cc.expected));
              soundness_violated.store(true);
            }
          }
          records[j] = std::move(rec);
          continue;
        }
        rec.cache_status = "miss";
      }

      CheckOptions co;
      co.engine_spec = spec;
      co.gen_spec = options.gen_spec;
      co.lift_sim = options.lift_sim;
      co.gen_ternary_filter = options.gen_ternary_filter;
      co.sat_inprocess = options.sat_inprocess;
      co.gen_batch = options.gen_batch;
      co.gen_batch_adaptive = options.gen_batch_adaptive;
      co.share_lemmas = options.share_lemmas;
      co.budget_ms = options.budget_ms;
      co.seed = options.seed;
      // --certify and the cache store need a checked certificate even
      // with verify_witness off; check_ts checks it once for all of them.
      co.verify_witness =
          options.verify_witness || options.certify || options.cache != nullptr;
      co.cancel = options.cancel;

      // Tier 2 — advisor: open with the engine + ~1.5× budget that solved
      // the nearest recorded neighbour; an UNKNOWN there falls back to the
      // job's own spec under the full budget.  Either way the verdict goes
      // through the same certification as an unadvised run.
      CheckResult res;
      bool advised_solved = false;
      double advised_seconds = 0.0;
      if (options.advisor != nullptr) {
        const std::optional<serve::Advice> adv = options.advisor->advise(
            rec.content_hash, rec.num_inputs, rec.num_latches, rec.num_ands);
        const bool usable =
            adv.has_value() && spec_is_valid(adv->engine_spec) &&
            (adv->engine_spec != spec ||
             (options.budget_ms <= 0 || adv->budget_ms < options.budget_ms));
        if (usable) {
          CheckOptions advised = co;
          advised.engine_spec = adv->engine_spec;
          advised.budget_ms = options.budget_ms > 0
                                  ? std::min(adv->budget_ms, options.budget_ms)
                                  : adv->budget_ms;
          CheckResult ares = check_ts(ts, advised);
          advised_seconds = ares.seconds;
          if (ares.verdict != ic3::Verdict::kUnknown) {
            res = std::move(ares);
            advised_solved = true;
            rec.advice = (adv->exact ? "exact:" : "near:") + adv->source_case +
                         "@" + std::to_string(advised.budget_ms) + "ms";
          } else {
            rec.advice = "fallback";
          }
        }
      }
      if (!advised_solved) res = check_ts(ts, co);

      rec.verdict = res.verdict;
      rec.solved = res.verdict != ic3::Verdict::kUnknown;
      rec.seconds = res.seconds + (advised_solved ? 0.0 : advised_seconds);
      rec.frames = res.frames;
      rec.stats = res.stats;

      if (rec.solved && cc.expected != corpus::Expected::kUnknown) {
        const corpus::Expected got =
            corpus::expected_from_safe(res.verdict == ic3::Verdict::kSafe);
        if (got != cc.expected) {
          std::fprintf(stderr,
                       "SOUNDNESS VIOLATION: %s with %s reported %s but the "
                       "case is expected %s\n",
                       cc.name.c_str(), spec.c_str(),
                       ic3::to_string(res.verdict),
                       corpus::to_string(cc.expected));
          soundness_violated.store(true);
        }
      }
      if (rec.solved && options.verify_witness && !res.witness_error.empty()) {
        std::fprintf(stderr, "WITNESS CHECK FAILED: %s with %s: %s\n",
                     cc.name.c_str(), spec.c_str(),
                     res.witness_error.c_str());
        soundness_violated.store(true);
      }
      // --certify publishes check_ts's certificate outcome and trips the
      // soundness gate on a failure; the cache stores only a verdict whose
      // certificate passed, so nothing uncheckable ever enters it.
      if (rec.solved && options.certify) {
        std::string status =
            res.witness_checked ? "ok" : "failed: " + res.witness_error;
        if (res.witness_checked && !options.cert_dir.empty()) {
          const std::string path = options.cert_dir + "/" + cc.name + "__" +
                                   sanitize_engine_spec(spec) + ".cert";
          if (cert::save(*res.certificate, path)) {
            rec.cert_path = path;
          } else {
            status = "failed: cannot write " + path;
          }
        }
        rec.cert_status = status;
        if (status != "ok") {
          std::fprintf(stderr, "CERTIFICATE CHECK FAILED: %s with %s: %s\n",
                       cc.name.c_str(), spec.c_str(), status.c_str());
          soundness_violated.store(true);
        }
      }
      if (options.cache != nullptr && rec.solved && res.witness_checked) {
        serve::CacheEntry entry;
        entry.hash = rec.content_hash;
        entry.verdict = rec.verdict;
        entry.engine = spec;
        entry.seconds = rec.seconds;
        entry.frames = rec.frames;
        entry.cert_text = cert::to_text(*res.certificate);
        entry.case_name = cc.name;
        entry.timestamp = corpus::now_utc_iso8601();
        options.cache->store(entry);
      }
      records[j] = std::move(rec);
    }
  };

  std::size_t n_threads = options.jobs;
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads = std::min(n_threads, jobs.size());
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (soundness_violated.load() && options.strict) {
    std::fprintf(stderr, "aborting: soundness gate tripped\n");
    std::abort();
  }
  return records;
}

std::vector<RunRecord> run_matrix(
    const std::vector<circuits::CircuitCase>& cases,
    const std::vector<std::string>& engines,
    const RunMatrixOptions& options) {
  std::vector<corpus::Case> converted;
  converted.reserve(cases.size());
  for (const circuits::CircuitCase& cc : cases) {
    converted.push_back(corpus::from_circuit(cc));
  }
  return run_matrix(converted, engines, options);
}

}  // namespace pilot::check
