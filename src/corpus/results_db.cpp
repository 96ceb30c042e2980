#include "corpus/results_db.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace pilot::corpus {

json::Value stats_to_json(const ic3::Ic3Stats& s) {
  json::Object o;
  o["generalizations"] = s.num_generalizations;
  o["prediction_queries"] = s.num_prediction_queries;
  o["successful_predictions"] = s.num_successful_predictions;
  o["found_failed_parents"] = s.num_found_failed_parents;
  o["lemmas"] = s.num_lemmas;
  o["obligations"] = s.num_obligations;
  o["mic_queries"] = s.num_mic_queries;
  o["push_queries"] = s.num_push_queries;
  o["max_frame"] = s.max_frame;
  // SAT hot-path counters (PR 4): campaigns quantify the solver-layer
  // optimizations — total propagation work, trail-reuse savings, binary
  // watch hits, glue clauses — per (case × engine) row.
  o["sat_solve_calls"] = s.sat_solve_calls;
  o["sat_propagations"] = s.sat_propagations;
  o["sat_conflicts"] = s.sat_conflicts;
  o["sat_decisions"] = s.sat_decisions;
  o["sat_db_reductions"] = s.sat_db_reductions;
  o["sat_trail_reuse_hits"] = s.sat_trail_reuse_hits;
  o["sat_saved_propagations"] = s.sat_saved_propagations;
  o["sat_binary_propagations"] = s.sat_binary_propagations;
  o["sat_glue_learnts"] = s.sat_glue_learnts;
  o["solver_rebuilds"] = s.num_solver_rebuilds;
  // Ternary drop-filter / packed-simulation counters (PR 6): how many
  // candidate-drop solves the cached-CTI filter screened and skipped, and
  // the packed ternary-simulation volume behind it.
  o["filter_checks"] = s.num_filter_checks;
  o["filter_solves_saved"] = s.num_filter_solves_saved;
  o["filter_witnesses"] = s.num_filter_witnesses;
  o["filter_blocking_witnesses"] = s.num_filter_blocking_witnesses;
  o["packed_sim_words"] = s.num_packed_sim_words;
  // Generalization-strategy rows (PR 5): one object per strategy that ran,
  // sorted by name for stable serialization, plus the dynamic-switch and
  // portfolio lemma-exchange totals.
  if (!s.gen_strategies.empty()) {
    std::vector<const ic3::GenStrategyStats*> sorted;
    sorted.reserve(s.gen_strategies.size());
    for (const ic3::GenStrategyStats& g : s.gen_strategies) {
      sorted.push_back(&g);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->name < b->name; });
    json::Array strategies;
    for (const ic3::GenStrategyStats* g : sorted) {
      json::Object row;
      row["name"] = g->name;
      row["attempts"] = g->attempts;
      row["successes"] = g->successes;
      row["queries"] = g->queries;
      row["dropped_lits"] = g->dropped_lits;
      row["switches"] = g->switches;
      strategies.push_back(json::Value(std::move(row)));
    }
    o["gen_strategies"] = std::move(strategies);
  }
  o["strategy_switches"] = s.num_strategy_switches;
  o["exchange_published"] = s.num_exchange_published;
  o["exchange_imported"] = s.num_exchange_imported;
  o["exchange_rejected"] = s.num_exchange_rejected;
  o["exchange_skipped"] = s.num_exchange_skipped;
  // Certification counters (PR 9): how many certificate checks gated this
  // row's verdict and how many failed (quarantines).
  o["cert_checks"] = s.num_cert_checks;
  o["cert_failures"] = s.num_cert_failures;
  // Inprocessing / batched-probe counters (PR 7): subsumption and
  // vivification work done in place, probing yield on unrolled CNFs, and
  // how many MIC candidate drops each batched solve answered.
  o["sat_subsumed"] = s.sat_subsumed_clauses;
  o["sat_strengthened"] = s.sat_strengthened_clauses;
  o["sat_vivified_lits"] = s.sat_vivified_literals;
  o["sat_probe_failed_lits"] = s.sat_probe_failed_literals;
  o["sat_scc_merged"] = s.sat_scc_merged_vars;
  o["batched_drop_solves"] = s.num_batched_drop_solves;
  o["batched_drop_answers"] = s.num_batched_drop_answers;
  // Adaptive batch width (PR 10): emitted only when the adaptive sizing
  // actually ran, so fixed-width rows keep their pre-existing shape.
  if (s.num_adaptive_batch_updates != 0) {
    o["adaptive_batch_updates"] = s.num_adaptive_batch_updates;
    o["adaptive_batch_width_sum"] = s.adaptive_batch_width_sum;
  }
  o["rebuild_subsumed"] = s.num_rebuild_subsumed;
  // Timing + per-phase profile (PR 8): coarse time_* fields plus one
  // {"seconds", "calls"} object per phase that actually ran, keyed by the
  // obs::phase_name string so rows stay readable and diffable.
  o["time_total"] = s.time_total;
  o["time_generalize"] = s.time_generalize;
  o["time_predict"] = s.time_predict;
  o["time_propagate"] = s.time_propagate;
  if (!s.phases.empty()) {
    json::Object phases;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      const auto p = static_cast<obs::Phase>(i);
      if (s.phases.calls_of(p) == 0) continue;
      json::Object entry;
      entry["seconds"] = s.phases.seconds_of(p);
      entry["calls"] = s.phases.calls_of(p);
      phases[obs::phase_name(p)] = json::Value(std::move(entry));
    }
    o["phases"] = json::Value(std::move(phases));
  }
  return json::Value(std::move(o));
}

ic3::Ic3Stats stats_from_json(const json::Value& v) {
  ic3::Ic3Stats s;
  s.num_generalizations = v.at("generalizations").as_uint();
  s.num_prediction_queries = v.at("prediction_queries").as_uint();
  s.num_successful_predictions = v.at("successful_predictions").as_uint();
  s.num_found_failed_parents = v.at("found_failed_parents").as_uint();
  s.num_lemmas = v.at("lemmas").as_uint();
  s.num_obligations = v.at("obligations").as_uint();
  s.num_mic_queries = v.at("mic_queries").as_uint();
  s.num_push_queries = v.at("push_queries").as_uint();
  s.max_frame = v.at("max_frame").as_uint();
  // Absent in rows written before the SAT-layer counters existed; at()
  // returns a null Value whose as_uint() falls back to 0.
  s.sat_solve_calls = v.at("sat_solve_calls").as_uint();
  s.sat_propagations = v.at("sat_propagations").as_uint();
  s.sat_conflicts = v.at("sat_conflicts").as_uint();
  s.sat_decisions = v.at("sat_decisions").as_uint();
  s.sat_db_reductions = v.at("sat_db_reductions").as_uint();
  s.sat_trail_reuse_hits = v.at("sat_trail_reuse_hits").as_uint();
  s.sat_saved_propagations = v.at("sat_saved_propagations").as_uint();
  s.sat_binary_propagations = v.at("sat_binary_propagations").as_uint();
  s.sat_glue_learnts = v.at("sat_glue_learnts").as_uint();
  s.num_solver_rebuilds = v.at("solver_rebuilds").as_uint();
  // Ternary-filter fields (PR 6): absent in older rows — same null/0
  // fallback as above keeps old baselines loadable.
  s.num_filter_checks = v.at("filter_checks").as_uint();
  s.num_filter_solves_saved = v.at("filter_solves_saved").as_uint();
  s.num_filter_witnesses = v.at("filter_witnesses").as_uint();
  s.num_filter_blocking_witnesses =
      v.at("filter_blocking_witnesses").as_uint();
  s.num_packed_sim_words = v.at("packed_sim_words").as_uint();
  // Strategy / exchange fields (PR 5): absent in older rows — at() returns
  // null and the as_* fallbacks keep everything 0 / empty.
  if (v.at("gen_strategies").is_array()) {
    for (const json::Value& row : v.at("gen_strategies").as_array()) {
      const std::string name = row.at("name").as_string();
      if (name.empty()) continue;
      ic3::GenStrategyStats& g = s.gen_strategy(name);
      g.attempts = row.at("attempts").as_uint();
      g.successes = row.at("successes").as_uint();
      g.queries = row.at("queries").as_uint();
      g.dropped_lits = row.at("dropped_lits").as_uint();
      g.switches = row.at("switches").as_uint();
    }
  }
  s.num_strategy_switches = v.at("strategy_switches").as_uint();
  s.num_exchange_published = v.at("exchange_published").as_uint();
  s.num_exchange_imported = v.at("exchange_imported").as_uint();
  s.num_exchange_rejected = v.at("exchange_rejected").as_uint();
  s.num_exchange_skipped = v.at("exchange_skipped").as_uint();
  // Certification fields (PR 9): absent in older rows — null/0 fallback.
  s.num_cert_checks = v.at("cert_checks").as_uint();
  s.num_cert_failures = v.at("cert_failures").as_uint();
  // Inprocessing / batched-probe fields (PR 7): absent in older rows —
  // the same null/0 fallback keeps pre-existing baselines loadable.
  s.sat_subsumed_clauses = v.at("sat_subsumed").as_uint();
  s.sat_strengthened_clauses = v.at("sat_strengthened").as_uint();
  s.sat_vivified_literals = v.at("sat_vivified_lits").as_uint();
  s.sat_probe_failed_literals = v.at("sat_probe_failed_lits").as_uint();
  s.sat_scc_merged_vars = v.at("sat_scc_merged").as_uint();
  s.num_batched_drop_solves = v.at("batched_drop_solves").as_uint();
  s.num_batched_drop_answers = v.at("batched_drop_answers").as_uint();
  s.num_adaptive_batch_updates = v.at("adaptive_batch_updates").as_uint();
  s.adaptive_batch_width_sum = v.at("adaptive_batch_width_sum").as_uint();
  s.num_rebuild_subsumed = v.at("rebuild_subsumed").as_uint();
  // Timing + phases (PR 8): absent in older rows — the same null/0
  // fallback applies, and phase names a future build no longer knows are
  // skipped rather than rejected.
  s.time_total = v.at("time_total").as_double();
  s.time_generalize = v.at("time_generalize").as_double();
  s.time_predict = v.at("time_predict").as_double();
  s.time_propagate = v.at("time_propagate").as_double();
  if (v.at("phases").is_object()) {
    for (const auto& [name, entry] : v.at("phases").as_object()) {
      const std::optional<obs::Phase> p = obs::phase_from_name(name);
      if (!p.has_value()) continue;
      s.phases.add(*p, entry.at("seconds").as_double(),
                   entry.at("calls").as_uint());
    }
  }
  return s;
}

json::Value to_json(const RunRow& row) {
  const check::RunRecord& r = row.record;
  json::Object o;
  o["case"] = r.case_name;
  o["family"] = r.family;
  json::Array tags;
  for (const std::string& t : r.tags) tags.push_back(t);
  o["tags"] = std::move(tags);
  o["engine"] = r.engine;
  o["expected"] = to_string(r.expected);
  o["verdict"] = ic3::to_string(r.verdict);
  o["solved"] = r.solved;
  o["seconds"] = r.seconds;
  o["frames"] = r.frames;
  if (!r.error.empty()) o["error"] = r.error;
  // Certificate fields (PR 9): emitted only when certification ran, so
  // rows written without --certify stay byte-identical to older builds.
  if (!r.cert_status.empty()) o["cert_status"] = r.cert_status;
  if (!r.cert_path.empty()) o["cert_path"] = r.cert_path;
  // Serving-layer fields (PR 10): the canonical structure hash + shape
  // features every loaded case records (advisor history), and the
  // cache/advisor outcomes when a cache or advisor was attached.  All
  // absent in older rows; the loader's null/0 fallbacks keep existing
  // baselines loadable without regeneration.
  if (!r.content_hash.empty()) {
    o["content_hash"] = r.content_hash;
    o["inputs"] = r.num_inputs;
    o["latches"] = r.num_latches;
    o["ands"] = r.num_ands;
  }
  if (!r.cache_status.empty()) o["cache"] = r.cache_status;
  if (!r.advice.empty()) o["advice"] = r.advice;
  o["stats"] = stats_to_json(r.stats);
  o["corpus"] = row.context.corpus;
  o["commit"] = row.context.commit;
  o["timestamp"] = row.context.timestamp;
  o["budget_ms"] = row.context.budget_ms;
  o["seed"] = row.context.seed;
  if (!row.context.gen_spec.empty()) o["gen"] = row.context.gen_spec;
  return json::Value(std::move(o));
}

RunRow row_from_json(const json::Value& v) {
  RunRow row;
  check::RunRecord& r = row.record;
  r.case_name = v.at("case").as_string();
  r.engine = v.at("engine").as_string();
  if (r.case_name.empty() || r.engine.empty()) {
    throw std::runtime_error("results row missing \"case\" or \"engine\"");
  }
  r.family = v.at("family").as_string();
  for (const json::Value& t : v.at("tags").as_array()) {
    r.tags.push_back(t.as_string());
  }
  r.expected = expected_from_string(v.at("expected").as_string());
  r.verdict = verdict_from_string(v.at("verdict").as_string());
  r.solved = v.at("solved").as_bool();
  r.seconds = v.at("seconds").as_double();
  r.frames = v.at("frames").as_uint();
  r.error = v.at("error").as_string();
  r.cert_status = v.at("cert_status").as_string();  // absent in old rows
  r.cert_path = v.at("cert_path").as_string();      // absent in old rows
  // Serving-layer fields (PR 10) — absent in old rows, same tolerance.
  r.content_hash = v.at("content_hash").as_string();
  r.num_inputs = v.at("inputs").as_uint();
  r.num_latches = v.at("latches").as_uint();
  r.num_ands = v.at("ands").as_uint();
  r.cache_status = v.at("cache").as_string();
  r.advice = v.at("advice").as_string();
  r.stats = stats_from_json(v.at("stats"));
  row.context.corpus = v.at("corpus").as_string();
  row.context.commit = v.at("commit").as_string();
  row.context.timestamp = v.at("timestamp").as_string();
  row.context.budget_ms = v.at("budget_ms").as_int();
  row.context.seed = v.at("seed").as_uint();
  row.context.gen_spec = v.at("gen").as_string();  // absent in old rows
  return row;
}

std::string now_utc_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string campaign_commit() {
  for (const char* var : {"PILOT_COMMIT", "GITHUB_SHA"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') return value;
  }
  return "";
}

ic3::Verdict verdict_from_string(const std::string& text) {
  if (text == "SAFE") return ic3::Verdict::kSafe;
  if (text == "UNSAFE") return ic3::Verdict::kUnsafe;
  return ic3::Verdict::kUnknown;
}

RunContext make_run_context(std::string corpus, std::int64_t budget_ms,
                            std::uint64_t seed, std::string gen_spec) {
  RunContext ctx;
  ctx.corpus = std::move(corpus);
  ctx.commit = campaign_commit();
  ctx.timestamp = now_utc_iso8601();
  ctx.budget_ms = budget_ms;
  ctx.seed = seed;
  ctx.gen_spec = std::move(gen_spec);
  return ctx;
}

bool record_mismatch(const check::RunRecord& record) {
  return record.solved && record.expected != Expected::kUnknown &&
         expected_from_safe(record.verdict == ic3::Verdict::kSafe) !=
             record.expected;
}

CampaignSummary summarize_campaign(
    const std::vector<check::RunRecord>& records) {
  CampaignSummary s;
  s.total = records.size();
  for (const check::RunRecord& r : records) {
    if (!r.error.empty()) {
      ++s.errors;
    } else if (r.solved) {
      ++s.solved;
      if (record_mismatch(r)) ++s.mismatches;
    } else {
      ++s.unknown;
    }
  }
  return s;
}

ResultsDb ResultsDb::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("results db: cannot open " + path);
  ResultsDb db;
  db.torn_lines_ = json::for_each_jsonl_line(
                       in, "results db " + path,
                       [&db](const std::string& line) {
                         db.add(row_from_json(json::parse(line)));
                       })
                       .torn;
  return db;
}

void ResultsDb::merge(const ResultsDb& other) {
  for (const RunRow& row : other.rows_) rows_.push_back(row);
  dedup();
}

void ResultsDb::dedup() {
  std::unordered_map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < rows_.size(); ++i) last[rows_[i].key()] = i;
  std::vector<RunRow> kept;
  kept.reserve(last.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (last.at(rows_[i].key()) == i) kept.push_back(std::move(rows_[i]));
  }
  rows_ = std::move(kept);
}

std::vector<RunRow> ResultsDb::query(const std::string& engine,
                                     const std::string& case_substr) const {
  std::vector<RunRow> out;
  for (const RunRow& row : rows_) {
    if (!engine.empty() && row.record.engine != engine) continue;
    if (!case_substr.empty() &&
        row.record.case_name.find(case_substr) == std::string::npos) {
      continue;
    }
    out.push_back(row);
  }
  return out;
}

std::vector<std::string> ResultsDb::engines() const {
  std::vector<std::string> out;
  for (const RunRow& row : rows_) {
    bool seen = false;
    for (const std::string& e : out) {
      if (e == row.record.engine) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(row.record.engine);
  }
  return out;
}

void ResultsDb::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("results db: cannot write " + path);
  for (const RunRow& row : rows_) out << to_json(row).dump() << "\n";
}

ResultsDb::Writer::Writer(const std::string& path, bool truncate) {
  if (path.empty()) {
    stream_ = stdout;
    owns_stream_ = false;
    return;
  }
  stream_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (stream_ == nullptr) {
    throw std::runtime_error("results db: cannot open " + path +
                             " for writing");
  }
  owns_stream_ = true;
}

ResultsDb::Writer::~Writer() {
  if (owns_stream_ && stream_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(stream_));
  }
}

void ResultsDb::Writer::append(const RunRow& row) {
  auto* f = static_cast<std::FILE*>(stream_);
  const std::string line = to_json(row).dump();
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fflush(f);
  ++rows_written_;
}

namespace {

DiffEntry make_entry(const RunRow& base, const RunRow& cur) {
  DiffEntry e;
  e.case_name = base.record.case_name;
  e.engine = base.record.engine;
  e.base_verdict = base.record.verdict;
  e.cur_verdict = cur.record.verdict;
  e.base_seconds = base.record.seconds;
  e.cur_seconds = cur.record.seconds;
  return e;
}

void describe(std::ostringstream& out, const char* label,
              const std::vector<DiffEntry>& entries, bool with_time) {
  if (entries.empty()) return;
  out << label << " (" << entries.size() << "):\n";
  for (const DiffEntry& e : entries) {
    out << "  " << e.case_name << " × " << e.engine << ": "
        << ic3::to_string(e.base_verdict) << " -> "
        << ic3::to_string(e.cur_verdict);
    if (with_time) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "  (%.3fs -> %.3fs)", e.base_seconds,
                    e.cur_seconds);
      out << buf;
    }
    out << "\n";
  }
}

}  // namespace

std::string DiffReport::summary(const DiffOptions& options) const {
  std::ostringstream out;
  describe(out, "VERDICT FLIPS — soundness alarm", verdict_flips, false);
  describe(out, "newly unsolved", newly_unsolved, true);
  describe(out, "time regressions", time_regressions, true);
  describe(out, "newly solved", newly_solved, true);
  if (!only_in_baseline.empty()) {
    out << "only in baseline (" << only_in_baseline.size() << "):\n";
    for (const std::string& k : only_in_baseline) out << "  " << k << "\n";
  }
  if (!only_in_current.empty()) {
    out << "only in current (" << only_in_current.size() << "):\n";
    for (const std::string& k : only_in_current) out << "  " << k << "\n";
  }
  if (out.str().empty()) out << "no differences\n";
  out << (failed(options) ? "RESULT: REGRESSION" : "RESULT: OK") << "\n";
  return out.str();
}

DiffReport diff_runs(const ResultsDb& baseline, const ResultsDb& current,
                     const DiffOptions& options) {
  ResultsDb base = baseline;
  ResultsDb cur = current;
  base.dedup();
  cur.dedup();

  std::unordered_map<std::string, const RunRow*> cur_by_key;
  for (const RunRow& row : cur.rows()) cur_by_key[row.key()] = &row;

  DiffReport report;
  std::unordered_map<std::string, bool> base_keys;
  for (const RunRow& b : base.rows()) {
    base_keys[b.key()] = true;
    const auto it = cur_by_key.find(b.key());
    const std::string pretty = b.record.case_name + " × " + b.record.engine;
    if (it == cur_by_key.end()) {
      report.only_in_baseline.push_back(pretty);
      continue;
    }
    const RunRow& c = *it->second;
    const bool base_solved = b.record.solved;
    const bool cur_solved = c.record.solved;
    if (base_solved && cur_solved &&
        b.record.verdict != c.record.verdict) {
      report.verdict_flips.push_back(make_entry(b, c));
      continue;
    }
    if (base_solved && !cur_solved) {
      report.newly_unsolved.push_back(make_entry(b, c));
      continue;
    }
    if (!base_solved && cur_solved) {
      report.newly_solved.push_back(make_entry(b, c));
      continue;
    }
    if (base_solved && cur_solved) {
      const double slower = std::max(b.record.seconds, c.record.seconds);
      if (slower >= options.min_seconds && b.record.seconds > 0.0 &&
          c.record.seconds / b.record.seconds > options.time_ratio) {
        report.time_regressions.push_back(make_entry(b, c));
      }
    }
  }
  for (const RunRow& c : cur.rows()) {
    if (base_keys.find(c.key()) == base_keys.end()) {
      report.only_in_current.push_back(c.record.case_name + " × " +
                                       c.record.engine);
    }
  }
  return report;
}

}  // namespace pilot::corpus
