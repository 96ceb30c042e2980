/// \file results_db.hpp
/// The append-only run-record database and the baseline regression differ —
/// the storage layer every benchmark campaign writes into and CI reads
/// back.
///
/// Format: JSONL, one self-contained row per (case × engine) run:
///
///   {"case":"ring7","engine":"ic3-ctg","verdict":"SAFE","solved":true,
///    "seconds":0.012,"frames":3,"expected":"safe","family":"aiger",
///    "tags":["hwmcc17"],"budget_ms":2000,"seed":0,
///    "corpus":"bench/hwmcc17","commit":"abc123",
///    "timestamp":"2026-07-28T12:00:00Z","error":"","stats":{...}}
///
/// Append-only JSONL makes concurrent campaigns safe to interleave at line
/// granularity and keeps the file mergeable with `cat`; load() + merge()
/// resolve duplicates by (case, engine) key, last row wins — so re-running
/// a flaky subset and appending supersedes the old rows without rewriting.
///
/// diff_runs() is the CI gate: verdict flips (SAFE↔UNSAFE — a soundness
/// alarm) and newly-unsolved cases fail; time regressions beyond
/// `time_ratio` are reported and fail only with `fail_on_time`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "util/json.hpp"

namespace pilot::corpus {

/// Campaign-level context stamped onto every row it produces.
struct RunContext {
  /// Corpus source: a manifest/directory path or "suite:<size>".
  std::string corpus;
  /// VCS revision; fill from campaign_commit() or leave "".
  std::string commit;
  /// ISO-8601 UTC; fill from now_utc_iso8601().
  std::string timestamp;
  std::int64_t budget_ms = 0;
  std::uint64_t seed = 0;
  /// Generalization-strategy override the campaign ran with
  /// (RunMatrixOptions::gen_spec); recorded so single-file `diff` re-runs
  /// reproduce the campaign exactly.  Empty = engines' own strategies.
  std::string gen_spec;
};

/// One database row: a check::RunRecord plus its campaign context.
struct RunRow {
  check::RunRecord record;
  RunContext context;

  /// Duplicate-resolution key.
  [[nodiscard]] std::string key() const {
    return record.case_name + "\x1f" + record.engine;
  }
};

[[nodiscard]] json::Value to_json(const RunRow& row);
/// Throws std::runtime_error on rows missing "case" or "engine".
[[nodiscard]] RunRow row_from_json(const json::Value& value);

/// The engine-statistics object embedded in every row's "stats" field —
/// public so `pilot --stats-json` can emit the identical shape for a single
/// run.  Includes per-phase wall time ("phases": name → {seconds, calls},
/// nonzero phases only) and the coarse time_* fields.  stats_from_json is
/// tolerant: fields absent in rows written by older builds load as 0/empty,
/// and unknown phase names are skipped, so existing baselines never need
/// regeneration.
[[nodiscard]] json::Value stats_to_json(const ic3::Ic3Stats& stats);
[[nodiscard]] ic3::Ic3Stats stats_from_json(const json::Value& value);

[[nodiscard]] std::string now_utc_iso8601();
/// PILOT_COMMIT or GITHUB_SHA from the environment, else "".
[[nodiscard]] std::string campaign_commit();
[[nodiscard]] ic3::Verdict verdict_from_string(const std::string& text);

/// A fresh campaign context: commit from the environment, timestamp = now.
[[nodiscard]] RunContext make_run_context(std::string corpus,
                                          std::int64_t budget_ms,
                                          std::uint64_t seed,
                                          std::string gen_spec = "");

/// Aggregate outcome of a campaign's records — the one definition of
/// "mismatch" and of the batch exit-code convention, shared by the `pilot`
/// and `pilot-bench` CLIs.
struct CampaignSummary {
  std::size_t total = 0;
  std::size_t solved = 0;
  std::size_t unknown = 0;
  std::size_t mismatches = 0;  // solved against a contradicting expected
  std::size_t errors = 0;      // cases that failed to load
  /// 0 = completed clean, 1 = expectation mismatches, 3 = load errors.
  [[nodiscard]] int exit_code() const {
    return errors > 0 ? 3 : (mismatches > 0 ? 1 : 0);
  }
};

/// True when a solved record contradicts its expected status.
[[nodiscard]] bool record_mismatch(const check::RunRecord& record);

[[nodiscard]] CampaignSummary summarize_campaign(
    const std::vector<check::RunRecord>& records);

class ResultsDb {
 public:
  /// Parses a JSONL file.  Unparseable lines throw (a results db is a
  /// machine-written artifact; silent row loss would corrupt diffs), except
  /// a torn final line left by a killed writer, which is skipped and
  /// counted in torn_lines() (json::for_each_jsonl_line).
  static ResultsDb load(const std::string& path);

  void add(RunRow row) { rows_.push_back(std::move(row)); }
  /// Appends every row of `other`; on (case, engine) collisions the row
  /// from `other` supersedes (dedup() order: last added wins).
  void merge(const ResultsDb& other);
  /// Collapses duplicate (case, engine) rows, keeping the last-added of
  /// each; original first-seen order is preserved otherwise.
  void dedup();

  [[nodiscard]] const std::vector<RunRow>& rows() const { return rows_; }
  /// Rows matching the filters; empty filter = match all.
  [[nodiscard]] std::vector<RunRow> query(const std::string& engine,
                                          const std::string& case_substr)
      const;
  /// Distinct engine specs, in first-seen order.
  [[nodiscard]] std::vector<std::string> engines() const;
  /// Torn final lines load() skipped (0 or 1).
  [[nodiscard]] std::size_t torn_lines() const { return torn_lines_; }

  /// Rewrites the whole db to `path` (one line per row).
  void save(const std::string& path) const;

  /// Append-only JSONL emitter, shared by `pilot --corpus` and
  /// `pilot-bench run`.  Lines are flushed as written, so a partial
  /// campaign still leaves a loadable prefix.
  class Writer {
   public:
    /// Opens for append (`truncate` starts the file fresh).  Throws when
    /// the file cannot be opened.  An empty path writes to stdout.
    explicit Writer(const std::string& path, bool truncate = false);
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    void append(const RunRow& row);
    [[nodiscard]] std::size_t rows_written() const { return rows_written_; }

   private:
    void* stream_ = nullptr;  // FILE*; void* keeps <cstdio> out of the header
    bool owns_stream_ = false;
    std::size_t rows_written_ = 0;
  };

 private:
  std::vector<RunRow> rows_;
  std::size_t torn_lines_ = 0;
};

struct DiffOptions {
  /// A solved-in-both case regresses when cur/base exceeds this ratio and
  /// the slower side is at least `min_seconds` (absolute floor filters
  /// timer noise on trivially fast cases).
  double time_ratio = 1.5;
  double min_seconds = 0.25;
  /// Count time regressions as failures (default: report only).
  bool fail_on_time = false;
};

struct DiffEntry {
  std::string case_name;
  std::string engine;
  ic3::Verdict base_verdict = ic3::Verdict::kUnknown;
  ic3::Verdict cur_verdict = ic3::Verdict::kUnknown;
  double base_seconds = 0.0;
  double cur_seconds = 0.0;
};

struct DiffReport {
  std::vector<DiffEntry> verdict_flips;     // SAFE↔UNSAFE: hard failure
  std::vector<DiffEntry> newly_unsolved;    // solved → unknown: failure
  std::vector<DiffEntry> newly_solved;      // informational
  std::vector<DiffEntry> time_regressions;  // beyond time_ratio
  std::vector<std::string> only_in_baseline;  // "case × engine" keys
  std::vector<std::string> only_in_current;

  /// A soundness alarm, independent of options.
  [[nodiscard]] bool hard_failure() const { return !verdict_flips.empty(); }
  /// The CI exit condition.
  [[nodiscard]] bool failed(const DiffOptions& options) const {
    return hard_failure() || !newly_unsolved.empty() ||
           (options.fail_on_time && !time_regressions.empty());
  }
  /// Human-readable multi-line report.
  [[nodiscard]] std::string summary(const DiffOptions& options) const;
};

/// Compares `current` against `baseline` row-by-row on the (case, engine)
/// key (both sides deduped first; last row wins).
[[nodiscard]] DiffReport diff_runs(const ResultsDb& baseline,
                                   const ResultsDb& current,
                                   const DiffOptions& options);

}  // namespace pilot::corpus
