/// \file pilot_bench_main.cpp
/// `pilot-bench` — the benchmark-campaign runner over the corpus subsystem:
/// ingest an AIGER corpus (or a built-in suite), run a (case × engine)
/// matrix into the append-only JSONL results database, and diff campaigns
/// against a baseline for CI regression gating.
///
///   pilot-bench run --corpus <manifest|dir|suite:SIZE> --engines a+b
///       [--budget-ms N] [--jobs N] [--out runs.jsonl]
///       [--certify] [--cert-dir DIR] [--shard i/n]
///       [--cache cache.jsonl] [--advise-from history.jsonl]
///   pilot-bench merge --out merged.jsonl <shard.jsonl>...
///   pilot-bench fuzz [--cases N] [--seed U64|from-commit] [--engines a+b]
///       [--budget-ms N] [--out DIR]
///   pilot-bench diff <baseline.jsonl> [<current.jsonl>]
///       [--time-threshold R] [--min-seconds S] [--fail-on-time]
///   pilot-bench bench-diff <old.json> <new.json>
///       [--threshold PCT] [--min-ns N] [--markdown] [--fail-on-regress]
///   pilot-bench report <runs.jsonl>
///   pilot-bench make-manifest --suite SIZE --out DIR [--format aag|aig]
///   pilot-bench list --corpus <manifest|dir|suite:SIZE>
///   pilot-bench validate-json <file>...
///
/// `fuzz` generates random instances of the built-in circuit families (and
/// seeded single-fault mutants of them), cross-checks the verdicts of
/// several engines against each other and against the family's expected
/// status, certifies every definitive verdict with the independent checker
/// (cert/certificate.hpp), and shrinks any disagreement to the smallest
/// family parameter that still reproduces it.
///
/// `diff` with one file re-runs the campaign recorded in the baseline rows
/// (same corpus, engines, budget, seed) and compares — the single command
/// CI calls.  Newly-unsolved cases and verdict flips (a soundness alarm)
/// fail the diff; time regressions beyond the threshold are reported, and
/// fail only with --fail-on-time.
///
/// `bench-diff` compares two google-benchmark JSON artifacts (the
/// `micro_ops.json` the bench-micro CI job uploads) and flags per-benchmark
/// slowdowns beyond --threshold percent.  Advisory by default (exit 0);
/// --fail-on-regress gates; --markdown emits a $GITHUB_STEP_SUMMARY table.
///
/// Exit codes: 0 = ok, 1 = regression / expectation mismatch, 3 = usage or
/// I/O error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "aig/aiger_io.hpp"
#include "check/runner.hpp"
#include "circuits/families.hpp"
#include "corpus/bench_diff.hpp"
#include "engine/portfolio.hpp"
#include "corpus/corpus.hpp"
#include "corpus/manifest.hpp"
#include "corpus/report.hpp"
#include "corpus/results_db.hpp"
#include "serve/advisor.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

using namespace pilot;

namespace {

/// Splits an `--engines` list.  ',' is the primary separator (needed when a
/// portfolio spec itself contains '+'); a list without ',' splits on '+'.
/// A lone "portfolio:…" / "portfolio-x:…" spec (engine::match_portfolio_spec
/// is the one grammar) is passed through whole, and mixing a portfolio spec
/// into a '+'-separated list is rejected as ambiguous —
/// "portfolio:bmc+kind" must not silently become ["portfolio:bmc", "kind"].
std::vector<std::string> split_engines(const std::string& text) {
  const bool has_portfolio_spec =
      text.find("portfolio:") != std::string::npos ||
      text.find("portfolio-x:") != std::string::npos;
  if (text.find(',') == std::string::npos && has_portfolio_spec) {
    if (engine::match_portfolio_spec(text).has_value()) return {text};
    throw std::invalid_argument(
        "--engines: a portfolio spec inside a '+'-separated list is "
        "ambiguous; separate engines with ',' instead");
  }
  const char sep = text.find(',') != std::string::npos ? ',' : '+';
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  if (out.empty()) {
    throw std::invalid_argument("--engines: empty engine list");
  }
  return out;
}

int report_campaign(const std::vector<check::RunRecord>& records,
                    const std::string& out_path) {
  for (const check::RunRecord& r : records) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "[pilot-bench] %s: ERROR %s\n",
                   r.case_name.c_str(), r.error.c_str());
    } else if (corpus::record_mismatch(r)) {
      std::fprintf(stderr,
                   "[pilot-bench] MISMATCH %s × %s: got %s, expected %s\n",
                   r.case_name.c_str(), r.engine.c_str(),
                   ic3::to_string(r.verdict), corpus::to_string(r.expected));
    }
  }
  const corpus::CampaignSummary s = corpus::summarize_campaign(records);
  std::fprintf(stderr,
               "[pilot-bench] %zu records: %zu solved, %zu unknown, "
               "%zu mismatches, %zu errors%s%s\n",
               s.total, s.solved, s.unknown, s.mismatches, s.errors,
               out_path.empty() ? "" : " — rows appended to ",
               out_path.c_str());
  return s.exit_code();
}

/// Runs one campaign and appends its rows to `writer`.
std::vector<check::RunRecord> run_campaign(
    const std::string& corpus_spec, const std::vector<std::string>& engines,
    const check::RunMatrixOptions& options,
    corpus::ResultsDb::Writer* writer, corpus::ResultsDb* db_out,
    const corpus::ShardSpec* shard = nullptr) {
  std::vector<corpus::Case> cases = corpus::resolve_corpus(corpus_spec);
  if (cases.empty()) {
    throw std::runtime_error("corpus '" + corpus_spec + "' has no cases");
  }
  if (shard != nullptr) {
    const std::size_t total = cases.size();
    cases = corpus::shard_cases(cases, *shard);
    std::fprintf(stderr, "[pilot-bench] shard %zu/%zu: %zu of %zu cases\n",
                 shard->index, shard->count, cases.size(), total);
    // An empty shard is a legitimate outcome for tiny corpora: the campaign
    // records zero rows and merge still reassembles the full result.
  }
  std::fprintf(stderr, "[pilot-bench] %zu cases × %zu engines, %lld ms "
               "budget\n",
               cases.size(), engines.size(),
               static_cast<long long>(options.budget_ms));
  const std::vector<check::RunRecord> records =
      check::run_matrix(cases, engines, options);

  const corpus::RunContext context = corpus::make_run_context(
      corpus_spec, options.budget_ms, options.seed, options.gen_spec);
  for (const check::RunRecord& r : records) {
    corpus::RunRow row{r, context};
    if (writer != nullptr) writer->append(row);
    if (db_out != nullptr) db_out->add(std::move(row));
  }
  return records;
}

int cmd_run(int argc, const char* const* argv) {
  std::string corpus_spec;
  std::string engines_text = "ic3-ctg-pl";
  std::string gen_spec;
  std::int64_t budget_ms = 2000;
  std::int64_t jobs = 0;
  std::int64_t seed = 0;
  std::string out_path;
  std::string lift_sim;
  std::string ternary_filter;
  std::string sat_inprocess;
  std::int64_t gen_batch = -1;
  std::string gen_batch_adaptive;
  bool truncate = false;
  bool verify_witness = true;
  bool certify = false;
  std::string cert_dir;
  std::string shard_text;
  std::string cache_path;
  std::string advise_from;
  OptionParser parser(
      "pilot-bench run — run a (corpus × engines) campaign into a results "
      "db");
  parser.add_string("corpus", &corpus_spec,
                    "manifest.json, a directory of .aig/.aag files, or "
                    "suite:tiny|quick|full");
  parser.add_string("engines", &engines_text,
                    "engine specs, '+'-separated (use ',' when a portfolio "
                    "spec contains '+')");
  parser.add_string("gen", &gen_spec,
                    "generalization-strategy override for the IC3-family "
                    "engines (down|ctg|cav23|predict|dynamic[:w,t])");
  parser.add_choice("lift-sim", &lift_sim, {"packed", "byte"},
                    "ternary-simulation backend for the lifter (default "
                    "packed; byte for A/B)");
  parser.add_choice("gen-ternary-filter", &ternary_filter, {"on", "off"},
                    "ternary drop-filter in the MIC core (default on; off "
                    "for A/B)");
  parser.add_choice("sat-inprocess", &sat_inprocess, {"on", "off"},
                    "SAT inprocessing: subsumption/vivification (IC3), "
                    "probing/SCC collapsing (BMC/k-ind); default on, off "
                    "for A/B");
  parser.add_int("gen-batch", &gen_batch,
                 "MIC candidate drops answered per SAT solve (1 = "
                 "sequential; default 4)");
  parser.add_choice("gen-batch-adaptive", &gen_batch_adaptive, {"on", "off"},
                    "size MIC probe batches from the observed probe failure "
                    "rate instead of the fixed --gen-batch width (default "
                    "off)");
  parser.add_string("shard", &shard_text,
                    "run only shard i of n (\"i/n\"): a deterministic "
                    "content-hash partition, reassembled with `pilot-bench "
                    "merge`");
  parser.add_string("cache", &cache_path,
                    "JSONL verdict cache: serve revalidated hits, store new "
                    "certified verdicts (created when missing)");
  parser.add_string("advise-from", &advise_from,
                    "results db mined for engine/budget advice on cache "
                    "misses (nearest prior instance opens, full spec is the "
                    "fallback)");
  parser.add_int("budget-ms", &budget_ms, "per-case wall-clock budget");
  parser.add_int("jobs", &jobs, "worker threads (0 = hardware concurrency)");
  parser.add_int("seed", &seed, "engine seed");
  parser.add_string("out", &out_path,
                    "append JSONL rows here (default: stdout)");
  parser.add_flag("truncate", &truncate,
                  "start --out fresh instead of appending");
  parser.add_flag("verify-witness", &verify_witness,
                  "re-check produced certificates (default on)");
  parser.add_flag("certify", &certify,
                  "emit + independently re-check a certificate for every "
                  "definitive verdict (outcome in the cert_status column)");
  parser.add_string("cert-dir", &cert_dir,
                    "with --certify: save certificate files here (the "
                    "directory must already exist)");
  if (!parser.parse(argc, argv)) return 3;
  if (corpus_spec.empty()) {
    std::fprintf(stderr, "pilot-bench run: --corpus is required\n");
    return 3;
  }

  check::RunMatrixOptions options;
  options.budget_ms = budget_ms;
  options.gen_spec = gen_spec;
  if (!lift_sim.empty()) {
    options.lift_sim = lift_sim == "byte" ? ic3::Config::LiftSim::kByte
                                          : ic3::Config::LiftSim::kPacked;
  }
  if (!ternary_filter.empty()) {
    options.gen_ternary_filter = ternary_filter == "on";
  }
  if (!sat_inprocess.empty()) options.sat_inprocess = sat_inprocess == "on";
  if (gen_batch == 0 || gen_batch < -1) {
    std::fprintf(stderr,
                 "pilot-bench run: --gen-batch must be >= 1 (1 = "
                 "sequential)\n");
    return 3;
  }
  if (gen_batch >= 1) options.gen_batch = static_cast<int>(gen_batch);
  if (!gen_batch_adaptive.empty()) {
    options.gen_batch_adaptive = gen_batch_adaptive == "on";
  }
  options.jobs = static_cast<std::size_t>(jobs);
  options.seed = static_cast<std::uint64_t>(seed);
  options.verify_witness = verify_witness;
  options.certify = certify || !cert_dir.empty();
  options.cert_dir = cert_dir;
  options.strict = false;  // mismatches surface via the exit code

  std::optional<corpus::ShardSpec> shard;
  if (!shard_text.empty()) shard = corpus::parse_shard_spec(shard_text);
  std::optional<serve::VerdictCache> cache;
  if (!cache_path.empty()) {
    cache.emplace(cache_path);
    options.cache = &*cache;
    std::fprintf(stderr, "[pilot-bench] cache %s: %zu entries loaded\n",
                 cache_path.c_str(), cache->size());
  }
  serve::Advisor advisor;
  if (!advise_from.empty()) {
    advisor = serve::Advisor::from_file(advise_from);
    options.advisor = &advisor;
    std::fprintf(stderr, "[pilot-bench] advisor: %zu history rows from %s\n",
                 advisor.size(), advise_from.c_str());
  }

  corpus::ResultsDb::Writer writer(out_path, truncate);
  const std::vector<check::RunRecord> records =
      run_campaign(corpus_spec, split_engines(engines_text), options, &writer,
                   nullptr, shard.has_value() ? &*shard : nullptr);
  if (cache.has_value()) {
    std::fprintf(stderr, "[pilot-bench] cache: %s\n",
                 cache->summary().c_str());
  }
  const int rc = report_campaign(records, out_path);
  std::size_t cert_failures = 0;
  for (const check::RunRecord& r : records) {
    if (!r.cert_status.empty() && r.cert_status != "ok") ++cert_failures;
  }
  if (cert_failures != 0) {
    std::fprintf(stderr, "[pilot-bench] %zu certificate failures\n",
                 cert_failures);
    return 1;
  }
  return rc;
}

// --- fuzz -------------------------------------------------------------------

/// splitmix64: tiny deterministic PRNG so fuzz runs reproduce from a seed
/// alone (no std::random_device, no global state).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// `--seed from-commit`: FNV-1a of the git revision, so every CI run of the
/// same commit replays the same cases while different commits explore
/// different ones.
std::uint64_t fuzz_seed_from_commit() {
  const std::string commit = corpus::campaign_commit();
  if (commit.empty()) return 1;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : commit) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;
}

/// One fuzzable family: a deterministic (param, aux) → circuit generator
/// with a shrinkable size parameter.  `aux` picks targets/limits within the
/// parameter's reachable range; the generator must stay valid (and keep its
/// expected status) for every param in [min_param, max_param].
struct FuzzFamily {
  const char* name;
  std::size_t min_param;
  std::size_t max_param;
  circuits::CircuitCase (*make)(std::size_t p, std::uint64_t aux);
};

const std::vector<FuzzFamily>& fuzz_families() {
  using circuits::CircuitCase;
  static const std::vector<FuzzFamily> kFamilies{
      {"counter-unsafe", 2, 9,
       [](std::size_t p, std::uint64_t aux) {
         const std::uint64_t max = (1ULL << p) - 1;
         return circuits::counter_unsafe(p, 1 + aux % max);
       }},
      {"counter-wrap-safe", 3, 9,
       [](std::size_t p, std::uint64_t aux) {
         const std::uint64_t max = (1ULL << p) - 1;
         const std::uint64_t limit = 1 + aux % (max / 2);
         // Any target beyond the wrap limit is unreachable, hence safe.
         return circuits::counter_wrap_safe(
             p, limit, limit + 1 + (aux >> 32) % (max - limit));
       }},
      {"counter-enable-unsafe", 2, 8,
       [](std::size_t p, std::uint64_t aux) {
         return circuits::counter_enable_unsafe(p,
                                                1 + aux % ((1ULL << p) - 1));
       }},
      {"combination-lock-unsafe", 2, 5,
       [](std::size_t p, std::uint64_t aux) {
         std::vector<std::uint64_t> digits(p);
         for (std::size_t i = 0; i < p; ++i) digits[i] = (aux >> (2 * i)) & 3u;
         return circuits::combination_lock_unsafe(2, digits);
       }},
      {"combination-lock-safe", 2, 5,
       [](std::size_t p, std::uint64_t aux) {
         std::vector<std::uint64_t> digits(p);
         for (std::size_t i = 0; i < p; ++i) digits[i] = (aux >> (2 * i)) & 3u;
         return circuits::combination_lock_safe(2, digits, aux % p);
       }},
      {"shift-register", 2, 12,
       [](std::size_t p, std::uint64_t aux) {
         return circuits::shift_register(p, (aux & 1) != 0);
       }},
      {"token-ring-safe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::token_ring_safe(p);
       }},
      {"token-ring-unsafe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::token_ring_unsafe(p);
       }},
      {"arbiter-safe", 2, 6,
       [](std::size_t p, std::uint64_t) { return circuits::arbiter_safe(p); }},
      {"arbiter-unsafe", 2, 6,
       [](std::size_t p, std::uint64_t) {
         return circuits::arbiter_unsafe(p);
       }},
      {"gray-counter-safe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::gray_counter_safe(p);
       }},
      {"gray-counter-unsafe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::gray_counter_unsafe(p);
       }},
      {"ring-parity-safe", 2, 10,
       [](std::size_t p, std::uint64_t) {
         return circuits::ring_parity_safe(p);
       }},
      // The occupancy counter is p bits, so capacity 2^p - 2 leaves room
      // for the unsafe variant's off-by-one full check (cap + 1 < 2^p).
      {"fifo-safe", 2, 6,
       [](std::size_t p, std::uint64_t) {
         return circuits::fifo_safe(p, (1ULL << p) - 2);
       }},
      {"fifo-unsafe", 2, 6,
       [](std::size_t p, std::uint64_t) {
         return circuits::fifo_unsafe(p, (1ULL << p) - 2);
       }},
      {"saturating-accumulator-safe", 2, 6,
       [](std::size_t p, std::uint64_t) {
         return circuits::saturating_accumulator_safe(p, (1ULL << p) - 2);
       }},
      {"saturating-accumulator-unsafe", 2, 6,
       [](std::size_t p, std::uint64_t) {
         return circuits::saturating_accumulator_unsafe(p, (1ULL << p) - 2);
       }},
      {"twin-counters-safe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::twin_counters_safe(p);
       }},
      {"twin-counters-unsafe", 2, 8,
       [](std::size_t p, std::uint64_t) {
         return circuits::twin_counters_unsafe(p);
       }},
  };
  return kFamilies;
}

/// Injects one seeded fault: flip a latch's reset value, or negate its
/// next-state function.  The mutant's expected status is unknown — it only
/// participates in engine-vs-engine and certificate cross-checks.
void apply_mutation(circuits::CircuitCase& cc, std::uint64_t key) {
  const std::vector<std::uint32_t>& latches = cc.aig.latches();
  if (latches.empty()) return;
  const std::size_t idx = key % latches.size();
  const std::uint32_t node = latches[idx];
  const aig::AigLit latch = aig::AigLit::make(node);
  if (((key >> 8) & 1) != 0) {
    cc.aig.set_init(latch, cc.aig.init(node) == aig::l_True ? aig::l_False
                                                            : aig::l_True);
    cc.name += "__mut-init" + std::to_string(idx);
  } else {
    cc.aig.set_next(latch, !cc.aig.next(node));
    cc.name += "__mut-next" + std::to_string(idx);
  }
  cc.expected_cex_length = -1;
}

/// A generated fuzz case plus the key that regenerates it (for shrinking).
struct FuzzCase {
  circuits::CircuitCase cc;
  std::size_t family_index = 0;
  std::size_t param = 0;
  std::uint64_t aux = 0;
  std::uint64_t mut_key = 0;  // 0 = unmutated
  bool expected_known = true;
};

FuzzCase make_fuzz_case(std::size_t family_index, std::size_t param,
                        std::uint64_t aux, std::uint64_t mut_key) {
  FuzzCase fc;
  fc.cc = fuzz_families()[family_index].make(param, aux);
  fc.family_index = family_index;
  fc.param = param;
  fc.aux = aux;
  fc.mut_key = mut_key;
  if (mut_key != 0) {
    apply_mutation(fc.cc, mut_key);
    fc.expected_known = false;
  }
  return fc;
}

/// Runs every engine on the case, certifies each definitive verdict, and
/// returns the first cross-check violation: a rejected witness or
/// certificate, a verdict contradicting the family's expected status, or a
/// SAFE-vs-UNSAFE disagreement between engines.
struct FuzzOutcome {
  bool failed = false;
  std::string why;
};

FuzzOutcome evaluate_fuzz_case(const FuzzCase& fc,
                               const std::vector<std::string>& engines,
                               std::int64_t budget_ms, std::uint64_t seed) {
  FuzzOutcome out;
  const ts::TransitionSystem ts =
      ts::TransitionSystem::from_aig(fc.cc.aig, 0);
  std::string safe_engine;
  std::string unsafe_engine;
  for (const std::string& spec : engines) {
    check::CheckOptions co;
    co.engine_spec = spec;
    co.budget_ms = budget_ms;
    co.seed = seed;
    co.verify_witness = true;
    const check::CheckResult r = check::check_ts(ts, co);
    if (r.verdict == ic3::Verdict::kUnknown) continue;
    const bool safe = r.verdict == ic3::Verdict::kSafe;
    if (!r.witness_checked) {
      out.failed = true;
      out.why = "certificate from " + spec + " (" +
                ic3::to_string(r.verdict) + ") rejected: " + r.witness_error;
      return out;
    }
    if (fc.expected_known && safe != fc.cc.expected_safe) {
      out.failed = true;
      out.why = spec + " reported " + ic3::to_string(r.verdict) +
                " but the family expects " +
                (fc.cc.expected_safe ? "SAFE" : "UNSAFE");
      return out;
    }
    (safe ? safe_engine : unsafe_engine) = spec;
  }
  if (!safe_engine.empty() && !unsafe_engine.empty()) {
    out.failed = true;
    out.why = "engines disagree: " + safe_engine + " says SAFE, " +
              unsafe_engine + " says UNSAFE";
  }
  return out;
}

/// Re-generates the failing case at every smaller family parameter (same
/// aux/mutation key) and returns the smallest one that still fails —
/// deterministic generation makes the scan exact, not heuristic.
FuzzCase shrink_fuzz_case(const FuzzCase& failing,
                          const std::vector<std::string>& engines,
                          std::int64_t budget_ms, std::uint64_t seed,
                          std::string* why) {
  const FuzzFamily& fam = fuzz_families()[failing.family_index];
  for (std::size_t p = fam.min_param; p < failing.param; ++p) {
    FuzzCase candidate =
        make_fuzz_case(failing.family_index, p, failing.aux, failing.mut_key);
    const FuzzOutcome v =
        evaluate_fuzz_case(candidate, engines, budget_ms, seed);
    if (v.failed) {
      *why = v.why;
      return candidate;
    }
  }
  return failing;
}

int cmd_fuzz(int argc, const char* const* argv) {
  std::int64_t cases = 25;
  std::string seed_text = "1";
  std::string engines_text = "ic3-ctg+kind+bmc";
  std::int64_t budget_ms = 2000;
  std::string out_dir;
  OptionParser parser(
      "pilot-bench fuzz — cross-check engines on random circuit-family "
      "instances and seeded single-fault mutants.\nEach case runs every "
      "engine; definitive verdicts must agree with each other, with the "
      "family's expected status (unmutated cases), and must certify under "
      "the independent checker.  Failures shrink to the smallest family "
      "parameter that still reproduces.\nExit codes: 0 = all cases clean, "
      "1 = cross-check failure, 3 = usage error.");
  parser.add_int("cases", &cases, "number of fuzz cases to generate");
  parser.add_string("seed", &seed_text,
                    "u64 PRNG seed, or 'from-commit' to derive one from the "
                    "git revision");
  parser.add_string("engines", &engines_text,
                    "engine specs to cross-check, '+'-separated");
  parser.add_int("budget-ms", &budget_ms,
                 "per-engine wall-clock budget per case");
  parser.add_string("out", &out_dir,
                    "write shrunk .aag reproducers here (the directory must "
                    "already exist)");
  if (!parser.parse(argc, argv)) return 3;
  if (cases <= 0) {
    std::fprintf(stderr, "pilot-bench fuzz: --cases must be >= 1, got %lld\n",
                 static_cast<long long>(cases));
    return 3;
  }

  std::uint64_t seed = 0;
  if (seed_text == "from-commit") {
    seed = fuzz_seed_from_commit();
    std::fprintf(stderr, "[pilot-bench] fuzz seed %llu (from commit '%s')\n",
                 static_cast<unsigned long long>(seed),
                 corpus::campaign_commit().c_str());
  } else {
    char* end = nullptr;
    seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (end == seed_text.c_str() || *end != '\0') {
      std::fprintf(stderr,
                   "pilot-bench fuzz: --seed expects a u64 or "
                   "'from-commit', got '%s'\n",
                   seed_text.c_str());
      return 3;
    }
  }

  const std::vector<std::string> engines = split_engines(engines_text);
  const std::vector<FuzzFamily>& families = fuzz_families();
  std::uint64_t rng = seed;
  std::size_t failures = 0;
  for (std::int64_t i = 0; i < cases; ++i) {
    const std::size_t family_index = splitmix64(rng) % families.size();
    const FuzzFamily& fam = families[family_index];
    const std::size_t param =
        fam.min_param +
        splitmix64(rng) % (fam.max_param - fam.min_param + 1);
    const std::uint64_t aux = splitmix64(rng);
    // Every ~third case carries one injected fault, so the cross-check also
    // sees circuits whose status no family invariant predicts.
    std::uint64_t mut_key = 0;
    if (splitmix64(rng) % 3 == 0) {
      mut_key = splitmix64(rng);
      if (mut_key == 0) mut_key = 1;
    }
    const FuzzCase fc = make_fuzz_case(family_index, param, aux, mut_key);
    const FuzzOutcome v =
        evaluate_fuzz_case(fc, engines, budget_ms, seed + 1 + i);
    if (!v.failed) {
      std::fprintf(stderr, "[pilot-bench] fuzz %lld/%lld %s: ok\n",
                   static_cast<long long>(i + 1),
                   static_cast<long long>(cases), fc.cc.name.c_str());
      continue;
    }
    ++failures;
    std::fprintf(stderr, "[pilot-bench] fuzz FAILURE on %s: %s\n",
                 fc.cc.name.c_str(), v.why.c_str());
    std::string shrunk_why = v.why;
    const FuzzCase minimal =
        shrink_fuzz_case(fc, engines, budget_ms, seed + 1 + i, &shrunk_why);
    if (minimal.param != fc.param) {
      std::fprintf(stderr, "[pilot-bench]   shrunk to %s: %s\n",
                   minimal.cc.name.c_str(), shrunk_why.c_str());
    }
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + minimal.cc.name + ".aag";
      try {
        aig::write_aiger_file(minimal.cc.aig, path);
        std::fprintf(stderr, "[pilot-bench]   reproducer: %s\n",
                     path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[pilot-bench]   cannot write %s: %s\n",
                     path.c_str(), e.what());
      }
    }
  }
  std::fprintf(stderr,
               "[pilot-bench] fuzz: %lld cases, %zu failures (seed %llu)\n",
               static_cast<long long>(cases), failures,
               static_cast<unsigned long long>(seed));
  return failures == 0 ? 0 : 1;
}

int cmd_diff(int argc, const char* const* argv) {
  double time_threshold = 1.5;
  double min_seconds = 0.25;
  bool fail_on_time = false;
  std::int64_t jobs = 0;
  OptionParser parser(
      "pilot-bench diff — compare a campaign against a baseline results "
      "db.\nusage: pilot-bench diff <baseline.jsonl> [<current.jsonl>]\n"
      "With one file, the baseline's recorded campaign (corpus, engines, "
      "budget, seed, --gen override) is re-run and compared.");
  parser.add_double("time-threshold", &time_threshold,
                    "cur/base runtime ratio counted as a regression");
  parser.add_double("min-seconds", &min_seconds,
                    "ignore time regressions on cases faster than this");
  parser.add_flag("fail-on-time", &fail_on_time,
                  "exit non-zero on time regressions too");
  parser.add_int("jobs", &jobs, "re-run mode: worker threads");
  if (!parser.parse(argc, argv)) return 3;
  if (parser.positional().empty() || parser.positional().size() > 2) {
    std::fprintf(stderr,
                 "usage: pilot-bench diff <baseline.jsonl> "
                 "[<current.jsonl>]\n");
    return 3;
  }

  corpus::ResultsDb baseline =
      corpus::ResultsDb::load(parser.positional()[0]);
  if (baseline.rows().empty()) {
    std::fprintf(stderr, "pilot-bench diff: baseline %s is empty\n",
                 parser.positional()[0].c_str());
    return 3;
  }

  corpus::ResultsDb current;
  if (parser.positional().size() == 2) {
    current = corpus::ResultsDb::load(parser.positional()[1]);
  } else {
    // Re-run the campaign the baseline recorded.
    baseline.dedup();
    const corpus::RunContext& ctx = baseline.rows().front().context;
    if (ctx.corpus.empty()) {
      std::fprintf(stderr,
                   "pilot-bench diff: baseline rows carry no corpus source; "
                   "pass a current.jsonl explicitly\n");
      return 3;
    }
    for (const corpus::RunRow& row : baseline.rows()) {
      if (row.context.corpus != ctx.corpus) {
        std::fprintf(stderr,
                     "pilot-bench diff: baseline mixes corpora ('%s' vs "
                     "'%s'); pass a current.jsonl explicitly\n",
                     ctx.corpus.c_str(), row.context.corpus.c_str());
        return 3;
      }
      if (row.context.gen_spec != ctx.gen_spec) {
        std::fprintf(stderr,
                     "pilot-bench diff: baseline mixes --gen overrides "
                     "('%s' vs '%s'); pass a current.jsonl explicitly\n",
                     ctx.gen_spec.c_str(), row.context.gen_spec.c_str());
        return 3;
      }
    }
    check::RunMatrixOptions options;
    options.budget_ms = ctx.budget_ms;
    options.gen_spec = ctx.gen_spec;  // reproduce the recorded campaign
    options.seed = ctx.seed;
    options.jobs = static_cast<std::size_t>(jobs);
    options.strict = false;
    (void)run_campaign(ctx.corpus, baseline.engines(), options, nullptr,
                       &current);
  }

  corpus::DiffOptions options;
  options.time_ratio = time_threshold;
  options.min_seconds = min_seconds;
  options.fail_on_time = fail_on_time;
  const corpus::DiffReport report =
      corpus::diff_runs(baseline, current, options);
  std::fputs(report.summary(options).c_str(), stdout);
  return report.failed(options) ? 1 : 0;
}

int cmd_bench_diff(int argc, const char* const* argv) {
  double threshold_pct = 25.0;
  double min_ns = 100.0;
  bool markdown = false;
  bool fail_on_regress = false;
  OptionParser parser(
      "pilot-bench bench-diff — compare two google-benchmark JSON "
      "artifacts.\nusage: pilot-bench bench-diff <old.json> <new.json>\n"
      "Median aggregates are used when the file carries repetitions; times "
      "are compared on cpu_time.");
  parser.add_double("threshold", &threshold_pct,
                    "percent slowdown flagged as a regression");
  parser.add_double("min-ns", &min_ns,
                    "ignore benchmarks whose slower side is below this");
  parser.add_flag("markdown", &markdown,
                  "emit a GitHub-flavored markdown table instead of text");
  parser.add_flag("fail-on-regress", &fail_on_regress,
                  "exit non-zero when slowdowns exist (default: advisory)");
  if (!parser.parse(argc, argv)) return 3;
  if (parser.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: pilot-bench bench-diff <old.json> <new.json>\n");
    return 3;
  }

  const std::vector<corpus::BenchEntry> baseline =
      corpus::load_benchmark_json(parser.positional()[0]);
  const std::vector<corpus::BenchEntry> current =
      corpus::load_benchmark_json(parser.positional()[1]);
  if (baseline.empty() || current.empty()) {
    // An empty side means the run produced no measurements at all — that
    // must not read as "no regressions", especially under --fail-on-regress.
    std::fprintf(stderr, "pilot-bench bench-diff: %s has no benchmarks\n",
                 baseline.empty() ? parser.positional()[0].c_str()
                                  : parser.positional()[1].c_str());
    return 3;
  }

  corpus::BenchDiffOptions options;
  options.slow_ratio = 1.0 + threshold_pct / 100.0;
  options.fast_ratio = options.slow_ratio;
  options.min_time_ns = min_ns;
  options.fail_on_regress = fail_on_regress;
  const corpus::BenchDiffReport report =
      corpus::diff_benchmarks(baseline, current, options);
  std::fputs(markdown ? report.markdown(options).c_str()
                      : report.summary(options).c_str(),
             stdout);
  return report.failed(options) ? 1 : 0;
}

int cmd_merge(int argc, const char* const* argv) {
  std::string out_path;
  OptionParser parser(
      "pilot-bench merge — combine sharded campaign dbs into one.\n"
      "usage: pilot-bench merge --out merged.jsonl <shard.jsonl>...\n"
      "Rows are concatenated in argument order and deduped per (case, "
      "engine), later files superseding earlier ones — so merging the n "
      "shards of a campaign reproduces the unsharded db (modulo row "
      "order).");
  parser.add_string("out", &out_path, "write the merged db here");
  if (!parser.parse(argc, argv)) return 3;
  if (out_path.empty()) {
    std::fprintf(stderr, "pilot-bench merge: --out is required\n");
    return 3;
  }
  if (parser.positional().empty()) {
    std::fprintf(stderr,
                 "usage: pilot-bench merge --out merged.jsonl "
                 "<shard.jsonl>...\n");
    return 3;
  }
  corpus::ResultsDb merged;
  for (const std::string& path : parser.positional()) {
    const corpus::ResultsDb shard_db = corpus::ResultsDb::load(path);
    std::fprintf(stderr, "[pilot-bench] %s: %zu rows\n", path.c_str(),
                 shard_db.rows().size());
    merged.merge(shard_db);
  }
  merged.dedup();
  merged.save(out_path);
  std::fprintf(stderr, "[pilot-bench] merged %zu files into %s (%zu rows)\n",
               parser.positional().size(), out_path.c_str(),
               merged.rows().size());
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  OptionParser parser(
      "pilot-bench report — aggregate a campaign db per engine and per "
      "phase.\nusage: pilot-bench report <runs.jsonl>\n"
      "Prints, for each engine: cases run, cases solved, total wall-clock, "
      "and the summed per-phase time table.  Rows written by builds without "
      "phase profiling contribute zeros (their tables are empty).");
  if (!parser.parse(argc, argv)) return 3;
  if (parser.positional().size() != 1) {
    std::fprintf(stderr, "usage: pilot-bench report <runs.jsonl>\n");
    return 3;
  }
  corpus::ResultsDb db = corpus::ResultsDb::load(parser.positional()[0]);
  db.dedup();  // superseded re-run rows must not double-count
  if (db.rows().empty()) {
    std::fprintf(stderr, "pilot-bench report: %s is empty\n",
                 parser.positional()[0].c_str());
    return 3;
  }
  const std::vector<corpus::EnginePhaseReport> rows =
      corpus::aggregate_phase_report(db);
  std::fputs(corpus::render_phase_report(rows).c_str(), stdout);
  return 0;
}

int cmd_validate_json(int argc, const char* const* argv) {
  OptionParser parser(
      "pilot-bench validate-json — parse JSON artifacts and fail on the "
      "first malformed one.\nusage: pilot-bench validate-json <file>...\n"
      "Files ending in .jsonl are validated line by line; everything else "
      "must be one JSON document.  The CI smoke gate for --trace and "
      "--stats-json output.");
  if (!parser.parse(argc, argv)) return 3;
  if (parser.positional().empty()) {
    std::fprintf(stderr, "usage: pilot-bench validate-json <file>...\n");
    return 3;
  }
  for (const std::string& path : parser.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "pilot-bench validate-json: cannot open %s\n",
                   path.c_str());
      return 3;
    }
    const bool jsonl =
        path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
    try {
      if (jsonl) {
        std::string line;
        std::size_t line_no = 0;
        std::size_t rows = 0;
        while (std::getline(in, line)) {
          ++line_no;
          if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
          try {
            (void)json::parse(line);
          } catch (const std::exception& e) {
            throw std::runtime_error("line " + std::to_string(line_no) +
                                     ": " + e.what());
          }
          ++rows;
        }
        std::printf("%s: ok (%zu rows)\n", path.c_str(), rows);
      } else {
        std::ostringstream text;
        text << in.rdbuf();
        (void)json::parse(text.str());
        std::printf("%s: ok\n", path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pilot-bench validate-json: %s: %s\n",
                   path.c_str(), e.what());
      return 3;
    }
  }
  return 0;
}

int cmd_make_manifest(int argc, const char* const* argv) {
  std::string suite = "tiny";
  std::string out_dir;
  std::string format = "aag";
  OptionParser parser(
      "pilot-bench make-manifest — export a built-in suite as an on-disk "
      "corpus (AIGER files + manifest.json)");
  parser.add_choice("suite", &suite, {"tiny", "quick", "full"},
                    "suite size to export");
  parser.add_string("out", &out_dir, "output directory");
  parser.add_choice("format", &format, {"aag", "aig"},
                    "AIGER flavour (ascii or binary)");
  if (!parser.parse(argc, argv)) return 3;
  if (out_dir.empty()) {
    std::fprintf(stderr, "pilot-bench make-manifest: --out is required\n");
    return 3;
  }
  const corpus::Manifest manifest = corpus::export_suite(
      circuits::suite_size_from_string(suite), out_dir, format == "aig");
  std::printf("wrote %zu cases and %s to %s\n", manifest.entries.size(),
              corpus::kManifestFilename, out_dir.c_str());
  return 0;
}

int cmd_list(int argc, const char* const* argv) {
  std::string corpus_spec;
  OptionParser parser("pilot-bench list — show a corpus' cases");
  parser.add_string("corpus", &corpus_spec,
                    "manifest.json, a directory, or suite:tiny|quick|full");
  if (!parser.parse(argc, argv)) return 3;
  if (corpus_spec.empty() && !parser.positional().empty()) {
    corpus_spec = parser.positional()[0];
  }
  if (corpus_spec.empty()) {
    std::fprintf(stderr, "pilot-bench list: --corpus is required\n");
    return 3;
  }
  const std::vector<corpus::Case> cases =
      corpus::resolve_corpus(corpus_spec);
  std::printf("%-32s %-8s %8s %8s %8s  %s\n", "case", "expect", "inputs",
              "latches", "ands", "tags");
  for (const corpus::Case& c : cases) {
    std::string tags;
    for (const std::string& t : c.tags) {
      if (!tags.empty()) tags += ",";
      tags += t;
    }
    std::printf("%-32s %-8s %8zu %8zu %8zu  %s\n", c.name.c_str(),
                corpus::to_string(c.expected), c.num_inputs, c.num_latches,
                c.num_ands, tags.c_str());
  }
  std::printf("%zu cases\n", cases.size());
  return 0;
}

void print_usage() {
  std::fputs(
      "pilot-bench — benchmark campaigns over AIGER corpora and the\n"
      "built-in suites, persisted to an append-only JSONL results db.\n\n"
      "subcommands:\n"
      "  run            run a (corpus × engines) matrix into the db\n"
      "  fuzz           cross-check engines on random/mutated circuits\n"
      "  diff           compare a campaign against a baseline db\n"
      "  merge          combine sharded campaign dbs into one\n"
      "  report         aggregate a campaign db per engine and per phase\n"
      "  bench-diff     compare two google-benchmark JSON artifacts\n"
      "  make-manifest  export a built-in suite as an on-disk corpus\n"
      "  list           show a corpus' cases and parse metadata\n"
      "  validate-json  parse JSON/JSONL artifacts (CI smoke gate)\n\n"
      "try `pilot-bench <subcommand> --help` for flags\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 3;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_usage();
    return 0;
  }
  // Shift so each subcommand parses its own flags from argv[2:].
  std::vector<const char*> args;
  args.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
  const int sub_argc = static_cast<int>(args.size());

  try {
    if (cmd == "run") return cmd_run(sub_argc, args.data());
    if (cmd == "fuzz") return cmd_fuzz(sub_argc, args.data());
    if (cmd == "diff") return cmd_diff(sub_argc, args.data());
    if (cmd == "merge") return cmd_merge(sub_argc, args.data());
    if (cmd == "report") return cmd_report(sub_argc, args.data());
    if (cmd == "validate-json") {
      return cmd_validate_json(sub_argc, args.data());
    }
    if (cmd == "bench-diff") return cmd_bench_diff(sub_argc, args.data());
    if (cmd == "make-manifest") {
      return cmd_make_manifest(sub_argc, args.data());
    }
    if (cmd == "list") return cmd_list(sub_argc, args.data());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot-bench %s: %s\n", cmd.c_str(), e.what());
    return 3;
  }
  std::fprintf(stderr, "pilot-bench: unknown subcommand '%s'\n",
               cmd.c_str());
  print_usage();
  return 3;
}
