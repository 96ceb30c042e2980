#include "corpus/results_db.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/log.hpp"

namespace pilot::corpus {
namespace {

/// `--set` keys older builds accepted and this one retired.  Each selected
/// only a verdict-preserving solve plan, so a row that carries one still
/// reproduces its verdicts without it.
constexpr std::array<std::string_view, 7> kRetiredKeys = {
    "clear_failure_push_on_propagate",
    "gen_batch",
    "gen_ternary_filter",
    "predict_core_shrink",
    "predict_max_extra_lits",
    "predict_refine_diff",
    "sat_inprocess"};

}  // namespace

json::Value stats_to_json(const ic3::Ic3Stats& s) {
  json::Object o;
  ic3::for_each_counter(s, [&](const char*, const char* key,
                               std::uint64_t value) { o[key] = value; });
  o["max_frame"] = s.max_frame;
  // Generalization-strategy rows (PR 5): one object per strategy that ran,
  // sorted by name for stable serialization.
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
  // Timing + per-phase profile: total seconds plus one
  // {"seconds", "calls"} object per phase that actually ran, keyed by the
  // obs::phase_name string so rows stay readable and diffable.
  o["time_total"] = s.time_total;
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
  // A key absent from the row (written before its counter existed) loads
  // as 0: at() returns a null Value whose as_uint() falls back to 0.  Keys
  // of counters this build no longer has are never looked up.
  ic3::for_each_counter(s, [&](const char*, const char* key,
                               std::uint64_t& field) {
    field = v.at(key).as_uint();
  });
  s.max_frame = v.at("max_frame").as_uint();
  // Strategy rows (PR 5): absent in older rows — at() returns null and the
  // as_* fallbacks keep everything 0 / empty.
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
  // Timing + phases (PR 8): absent in older rows — the same null/0
  // fallback applies, and phase names a future build no longer knows are
  // skipped rather than rejected.
  s.time_total = v.at("time_total").as_double();
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
  // Serving-layer fields: the canonical structure hash + shape features
  // every loaded case records, and the cache outcome when a cache was
  // attached.  All absent in older rows; the loader's null/0 fallbacks
  // keep existing baselines loadable without regeneration.
  if (!r.content_hash.empty()) {
    o["content_hash"] = r.content_hash;
    o["inputs"] = r.num_inputs;
    o["latches"] = r.num_latches;
    o["ands"] = r.num_ands;
  }
  if (!r.cache_status.empty()) o["cache"] = r.cache_status;
  o["stats"] = stats_to_json(r.stats);
  o["corpus"] = row.context.corpus;
  o["commit"] = row.context.commit;
  o["timestamp"] = row.context.timestamp;
  o["budget_ms"] = row.context.budget_ms;
  o["seed"] = row.context.seed;
  if (!row.context.patch.empty()) {
    json::Array set;
    for (const std::string& item : row.context.patch.items()) {
      set.emplace_back(item);
    }
    o["set"] = std::move(set);
  }
  return json::Value(std::move(o));
}

RunRow row_from_json(const json::Value& v, bool* dropped_retired) {
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
  r.stats = stats_from_json(v.at("stats"));
  row.context.corpus = v.at("corpus").as_string();
  row.context.commit = v.at("commit").as_string();
  row.context.timestamp = v.at("timestamp").as_string();
  row.context.budget_ms = v.at("budget_ms").as_int();
  row.context.seed = v.at("seed").as_uint();
  std::vector<std::string> set;
  if (!v.at("gen").as_string().empty()) {
    set.push_back("gen=" + v.at("gen").as_string());
  }
  for (const json::Value& item : v.at("set").as_array()) {
    const std::string text = item.as_string();
    const std::string key = text.substr(0, text.find('='));
    if (std::find(kRetiredKeys.begin(), kRetiredKeys.end(), key) !=
        kRetiredKeys.end()) {
      if (dropped_retired != nullptr) *dropped_retired = true;
      continue;
    }
    set.push_back(text);
  }
  row.context.patch = ic3::ConfigPatch::parse(set);
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
                            std::uint64_t seed, ic3::ConfigPatch patch) {
  RunContext ctx;
  ctx.corpus = std::move(corpus);
  ctx.commit = campaign_commit();
  ctx.timestamp = now_utc_iso8601();
  ctx.budget_ms = budget_ms;
  ctx.seed = seed;
  ctx.patch = std::move(patch);
  return ctx;
}

ResultsDb ResultsDb::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("results db: cannot open " + path);
  ResultsDb db;
  bool dropped_retired = false;
  db.tail_ = json::for_each_jsonl_line(
      in, "results db " + path, [&](const std::string& line) {
        db.add(row_from_json(json::parse(line), &dropped_retired));
      });
  if (dropped_retired) {
    std::string keys;
    for (const std::string_view key : kRetiredKeys) {
      keys += (keys.empty() ? "" : ", ") + std::string(key);
    }
    PILOT_WARN("results db " << path << ": ignoring retired --set keys ("
                             << keys << ")");
  }
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
  if (!truncate && std::filesystem::exists(path)) {
    json::end_jsonl_tail(path, load(path).tail_);
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
