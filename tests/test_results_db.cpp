/// Results-database tests: JSONL round trips (write → load), append-only
/// writer semantics, merge/dedup keying, query filters, and the full diff
/// matrix — identical, verdict flip, newly unsolved/solved, time
/// regression, missing rows.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corpus/results_db.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace pilot::corpus {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name) {
    path_ = (fs::temp_directory_path() /
             ("pilot_results_test_" + name + "_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              ".jsonl"))
                .string();
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

RunRow make_row(const std::string& case_name, const std::string& engine,
                ic3::Verdict verdict, double seconds) {
  RunRow row;
  row.record.case_name = case_name;
  row.record.family = "aiger";
  row.record.tags = {"t1", "t2"};
  row.record.engine = engine;
  row.record.expected = Expected::kSafe;
  row.record.verdict = verdict;
  row.record.solved = verdict != ic3::Verdict::kUnknown;
  row.record.seconds = seconds;
  row.record.frames = 7;
  row.record.stats.num_generalizations = 42;
  row.record.stats.num_prediction_queries = 17;
  row.record.stats.num_successful_predictions = 9;
  row.record.stats.max_frame = 7;
  row.context.corpus = "suite:tiny";
  row.context.commit = "deadbeef";
  row.context.timestamp = "2026-07-28T00:00:00Z";
  row.context.budget_ms = 2000;
  row.context.seed = 3;
  return row;
}

TEST(ResultsDb, JsonRoundTripPreservesEveryField) {
  const RunRow row = make_row("ring_7", "ic3-ctg-pl", ic3::Verdict::kSafe,
                              1.25);
  const RunRow back = row_from_json(json::parse(to_json(row).dump()));
  EXPECT_EQ(back.record.case_name, "ring_7");
  EXPECT_EQ(back.record.family, "aiger");
  EXPECT_EQ(back.record.tags, row.record.tags);
  EXPECT_EQ(back.record.engine, "ic3-ctg-pl");
  EXPECT_EQ(back.record.expected, Expected::kSafe);
  EXPECT_EQ(back.record.verdict, ic3::Verdict::kSafe);
  EXPECT_TRUE(back.record.solved);
  EXPECT_DOUBLE_EQ(back.record.seconds, 1.25);
  EXPECT_EQ(back.record.frames, 7u);
  EXPECT_EQ(back.record.stats.num_generalizations, 42u);
  EXPECT_EQ(back.record.stats.num_prediction_queries, 17u);
  EXPECT_EQ(back.record.stats.num_successful_predictions, 9u);
  EXPECT_EQ(back.record.stats.max_frame, 7u);
  EXPECT_EQ(back.context.corpus, "suite:tiny");
  EXPECT_EQ(back.context.commit, "deadbeef");
  EXPECT_EQ(back.context.timestamp, "2026-07-28T00:00:00Z");
  EXPECT_EQ(back.context.budget_ms, 2000);
  EXPECT_EQ(back.context.seed, 3u);
}

TEST(ResultsDb, WriterAppendsAndLoadReadsBack) {
  TempFile file("roundtrip");
  {
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kUnsafe, 0.7));
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  {
    // Append mode: a second writer extends, not truncates.
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("c", "bmc", ic3::Verdict::kUnknown, 2.0));
  }
  const ResultsDb db = ResultsDb::load(file.str());
  ASSERT_EQ(db.rows().size(), 3u);
  EXPECT_EQ(db.rows()[0].record.case_name, "a");
  EXPECT_EQ(db.rows()[2].record.engine, "bmc");

  const auto engines = db.engines();
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0], "ic3-ctg");
  EXPECT_EQ(engines[1], "bmc");
}

TEST(ResultsDb, LoadRejectsCorruptRows) {
  TempFile file("corrupt");
  std::ofstream out(file.str(), std::ios::binary);
  out << to_json(make_row("a", "bmc", ic3::Verdict::kSafe, 0.1)).dump()
      << "\n"
      << "{this is not json}\n";
  out.close();
  EXPECT_THROW((void)ResultsDb::load(file.str()), std::runtime_error);
  EXPECT_THROW((void)ResultsDb::load("/no/such/file.jsonl"),
               std::runtime_error);
}

TEST(ResultsDb, LoadSkipsATornFinalLine) {
  TempFile file("torn");
  const std::string last =
      to_json(make_row("b", "bmc", ic3::Verdict::kUnsafe, 0.2)).dump();
  {
    std::ofstream out(file.str(), std::ios::binary);
    out << to_json(make_row("a", "bmc", ic3::Verdict::kSafe, 0.1)).dump()
        << "\n"
        << last.substr(0, last.size() / 2);  // cut mid-write, no newline
  }
  const ResultsDb db = ResultsDb::load(file.str());
  ASSERT_EQ(db.rows().size(), 1u);
  EXPECT_EQ(db.rows()[0].record.case_name, "a");
  EXPECT_EQ(db.torn_lines(), 1u);

  // The same cut line with its newline is corruption, not a torn tail.
  {
    std::ofstream out(file.str(), std::ios::binary | std::ios::app);
    out << "\n";
  }
  EXPECT_THROW((void)ResultsDb::load(file.str()), std::runtime_error);
}

TEST(ResultsDb, WriterCutsATornTailBeforeAppending) {
  TempFile file("torn_append");
  const std::string last =
      to_json(make_row("b", "bmc", ic3::Verdict::kUnsafe, 0.2)).dump();
  {
    std::ofstream out(file.str(), std::ios::binary);
    out << to_json(make_row("a", "bmc", ic3::Verdict::kSafe, 0.1)).dump()
        << "\n"
        << last.substr(0, last.size() / 2);  // a writer killed mid-line
  }
  {
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("c", "bmc", ic3::Verdict::kSafe, 0.3));
  }
  const ResultsDb db = ResultsDb::load(file.str());
  ASSERT_EQ(db.rows().size(), 2u);
  EXPECT_EQ(db.rows()[0].record.case_name, "a");
  EXPECT_EQ(db.rows()[1].record.case_name, "c");
  EXPECT_EQ(db.torn_lines(), 0u);

  // An intact last row without its newline is kept and ended first.
  {
    std::ofstream out(file.str(), std::ios::binary | std::ios::trunc);
    out << last;
  }
  {
    ResultsDb::Writer writer(file.str());
    writer.append(make_row("d", "bmc", ic3::Verdict::kSafe, 0.4));
  }
  const ResultsDb joined = ResultsDb::load(file.str());
  ASSERT_EQ(joined.rows().size(), 2u);
  EXPECT_EQ(joined.rows()[0].record.case_name, "b");
  EXPECT_EQ(joined.rows()[1].record.case_name, "d");
}

TEST(ResultsDb, CampaignPatchRoundTripsThroughTheSetField) {
  const ic3::ConfigPatch patch =
      ic3::ConfigPatch::parse({"gen=down", "gen=dynamic:8,0.50"});
  RunRow row = make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5);
  row.context = make_run_context("tests/corpus", 2000, 0, patch);
  const json::Value v = to_json(row);
  ASSERT_EQ(v.at("set").as_array().size(), 1u);
  EXPECT_EQ(v.at("set").as_array()[0].as_string(), "gen=dynamic:8,0.5");

  TempFile file("patch");
  ResultsDb db;
  db.add(row);
  db.save(file.str());
  const ResultsDb back = ResultsDb::load(file.str());
  ASSERT_EQ(back.rows().size(), 1u);
  EXPECT_EQ(back.rows()[0].context.patch, patch);

  // Rows written before "set" existed recorded only "gen":"X".
  json::Object legacy = to_json(make_row("a", "ic3-ctg", ic3::Verdict::kSafe,
                                         0.5))
                            .as_object();
  legacy["gen"] = "down";
  EXPECT_EQ(row_from_json(json::Value(legacy)).context.patch,
            ic3::ConfigPatch::parse({"gen=down"}));

  // An unknown key fails the row instead of silently dropping a setting.
  json::Object unknown = v.as_object();
  unknown["set"] = json::Array{json::Value("nosuch=1")};
  EXPECT_THROW((void)row_from_json(json::Value(unknown)),
               std::invalid_argument);
}

TEST(ResultsDb, RetiredSetKeysAreDroppedOnLoad) {
  // A row written while gen_batch / sat_inprocess were still settable.
  json::Object old =
      to_json(make_row("a", "ic3-down", ic3::Verdict::kSafe, 0.5)).as_object();
  old["set"] = json::Array{json::Value("gen=down"), json::Value("gen_batch=1"),
                           json::Value("sat_inprocess=off")};
  bool dropped = false;
  const RunRow row = row_from_json(json::Value(old), &dropped);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(row.context.patch, ic3::ConfigPatch::parse({"gen=down"}));

  TempFile file("retired");
  {
    std::ofstream out(file.str(), std::ios::binary | std::ios::trunc);
    out << json::Value(old).dump() << "\n";
  }
  const ResultsDb db = ResultsDb::load(file.str());
  ASSERT_EQ(db.rows().size(), 1u);
  EXPECT_EQ(db.rows()[0].context.patch, ic3::ConfigPatch::parse({"gen=down"}));
}

TEST(ResultsDb, RetiredPredictionKeysAreDroppedOnLoad) {
  // Rows written while the prediction ablation keys were settable.
  for (const char* item :
       {"predict_refine_diff=off", "clear_failure_push_on_propagate=off",
        "predict_max_extra_lits=2", "predict_core_shrink=on"}) {
    json::Object old =
        to_json(make_row("a", "ic3-ctg-pl", ic3::Verdict::kSafe, 0.5))
            .as_object();
    old["set"] = json::Array{json::Value(item)};
    bool dropped = false;
    const RunRow row = row_from_json(json::Value(old), &dropped);
    EXPECT_TRUE(dropped) << item;
    EXPECT_TRUE(row.context.patch.empty()) << item;
  }
}

TEST(ResultsDb, PushCountersRoundTripAndOldRowsReadZero) {
  RunRow row = make_row("a", "ic3-down", ic3::Verdict::kSafe, 0.5);
  row.record.stats.num_push_queries = 45;
  row.record.stats.num_push_successes = 41;
  row.record.stats.num_push_skipped_by_ctp = 10;
  row.record.stats.num_push_ctp_revalidations = 12;
  const RunRow back = row_from_json(json::parse(to_json(row).dump()));
  EXPECT_EQ(back.record.stats.num_push_queries, 45u);
  EXPECT_EQ(back.record.stats.num_push_successes, 41u);
  EXPECT_EQ(back.record.stats.num_push_skipped_by_ctp, 10u);
  EXPECT_EQ(back.record.stats.num_push_ctp_revalidations, 12u);

  // A row written before these counters were persisted loads them as 0.
  json::Object old = to_json(row).as_object();
  json::Object stats = old.at("stats").as_object();
  for (const char* key :
       {"push_successes", "push_skipped_by_ctp", "push_ctp_revalidations"}) {
    ASSERT_EQ(stats.erase(key), 1u) << key;
  }
  old["stats"] = json::Value(std::move(stats));
  const RunRow legacy = row_from_json(json::Value(old));
  EXPECT_EQ(legacy.record.stats.num_push_queries, 45u);
  EXPECT_EQ(legacy.record.stats.num_push_successes, 0u);
  EXPECT_EQ(legacy.record.stats.num_push_skipped_by_ctp, 0u);
  EXPECT_EQ(legacy.record.stats.num_push_ctp_revalidations, 0u);
}

TEST(ResultsDb, MergeKeepsLastRowPerCaseEngineKey) {
  ResultsDb db;
  db.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  db.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.6));

  ResultsDb newer;
  newer.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.1));  // re-run
  newer.add(make_row("a", "bmc", ic3::Verdict::kUnknown, 2.0));   // new key

  db.merge(newer);
  ASSERT_EQ(db.rows().size(), 3u);
  // The re-run superseded the original "a × ic3-ctg" row.
  const auto rows = db.query("ic3-ctg", "a");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].record.seconds, 0.1);
}

TEST(ResultsDb, QueryFiltersByEngineAndSubstring) {
  ResultsDb db;
  db.add(make_row("ring_4", "ic3-ctg", ic3::Verdict::kSafe, 0.1));
  db.add(make_row("ring_8", "ic3-ctg", ic3::Verdict::kSafe, 0.2));
  db.add(make_row("ring_4", "bmc", ic3::Verdict::kUnknown, 1.0));
  EXPECT_EQ(db.query("ic3-ctg", "").size(), 2u);
  EXPECT_EQ(db.query("", "ring_4").size(), 2u);
  EXPECT_EQ(db.query("bmc", "ring_4").size(), 1u);
  EXPECT_EQ(db.query("pdr", "").size(), 0u);
}

TEST(Diff, IdenticalRunsAreClean) {
  ResultsDb db;
  db.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  db.add(make_row("b", "bmc", ic3::Verdict::kUnknown, 2.0));
  const DiffOptions options;
  const DiffReport report = diff_runs(db, db, options);
  EXPECT_FALSE(report.failed(options));
  EXPECT_FALSE(report.hard_failure());
  EXPECT_TRUE(report.verdict_flips.empty());
  EXPECT_TRUE(report.newly_unsolved.empty());
  EXPECT_TRUE(report.time_regressions.empty());
  EXPECT_NE(report.summary(options).find("RESULT: OK"), std::string::npos);
}

TEST(Diff, VerdictFlipIsAHardFailure) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kUnsafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.verdict_flips.size(), 1u);
  EXPECT_EQ(report.verdict_flips[0].case_name, "a");
  EXPECT_TRUE(report.hard_failure());
  EXPECT_TRUE(report.failed(options));
  EXPECT_NE(report.summary(options).find("REGRESSION"), std::string::npos);
}

TEST(Diff, NewlyUnsolvedFailsNewlySolvedDoesNot) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  base.add(make_row("b", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  cur.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.newly_unsolved.size(), 1u);
  EXPECT_EQ(report.newly_unsolved[0].case_name, "a");
  ASSERT_EQ(report.newly_solved.size(), 1u);
  EXPECT_EQ(report.newly_solved[0].case_name, "b");
  EXPECT_TRUE(report.failed(options));

  // The improvement alone is not a failure.
  ResultsDb cur2;
  cur2.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  cur2.add(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  EXPECT_FALSE(diff_runs(base, cur2, options).failed(options));
}

TEST(Diff, TimeRegressionRespectsThresholdAndFloor) {
  ResultsDb base;
  base.add(make_row("slow", "ic3-ctg", ic3::Verdict::kSafe, 1.0));
  base.add(make_row("tiny", "ic3-ctg", ic3::Verdict::kSafe, 0.01));
  ResultsDb cur;
  cur.add(make_row("slow", "ic3-ctg", ic3::Verdict::kSafe, 2.0));
  cur.add(make_row("tiny", "ic3-ctg", ic3::Verdict::kSafe, 0.05));  // 5× but tiny

  DiffOptions options;
  options.time_ratio = 1.5;
  options.min_seconds = 0.25;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.time_regressions.size(), 1u);  // floor filtered "tiny"
  EXPECT_EQ(report.time_regressions[0].case_name, "slow");
  EXPECT_FALSE(report.failed(options));  // reported, not failed

  options.fail_on_time = true;
  EXPECT_TRUE(report.failed(options));

  options.fail_on_time = false;
  options.time_ratio = 3.0;
  EXPECT_TRUE(diff_runs(base, cur, options).time_regressions.empty());
}

TEST(Diff, MissingRowsAreReportedInformationally) {
  ResultsDb base;
  base.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  base.add(make_row("gone", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  ResultsDb cur;
  cur.add(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  cur.add(make_row("new", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
  const DiffOptions options;
  const DiffReport report = diff_runs(base, cur, options);
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_FALSE(report.failed(options));
}

TEST(Diff, FullPipelineWriteLoadMergeDiff) {
  // The satellite round trip in one flow: write two campaign files, load,
  // merge (second supersedes), diff against the first.
  TempFile base_file("base");
  TempFile fix_file("fix");
  {
    ResultsDb::Writer writer(base_file.str());
    writer.append(make_row("a", "ic3-ctg", ic3::Verdict::kSafe, 0.5));
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kUnknown, 2.0));
  }
  {
    ResultsDb::Writer writer(fix_file.str());
    writer.append(make_row("b", "ic3-ctg", ic3::Verdict::kSafe, 0.4));
  }
  ResultsDb merged = ResultsDb::load(base_file.str());
  merged.merge(ResultsDb::load(fix_file.str()));
  ASSERT_EQ(merged.rows().size(), 2u);

  const DiffOptions options;
  const DiffReport report =
      diff_runs(ResultsDb::load(base_file.str()), merged, options);
  EXPECT_EQ(report.newly_solved.size(), 1u);
  EXPECT_FALSE(report.failed(options));
}

}  // namespace
}  // namespace pilot::corpus
