/// \file bench_common.hpp
/// Shared scaffolding for the experiment-reproduction binaries: flag
/// parsing (suite size, per-case budget, parallelism, results-db sourcing)
/// and run-matrix helpers.  Each bench binary reproduces one table or
/// figure of the paper (see the "Experiment configurations" section of
/// docs/ARCHITECTURE.md for the index and the expected shapes).
///
/// Record sourcing: by default a harness runs its (suite × engines) matrix
/// inline, but `--db runs.jsonl` makes it aggregate rows from a results
/// database written by `pilot-bench run` instead — so one campaign feeds
/// every table and figure without re-solving anything.  `--save-db` writes
/// the records of an inline run back out, closing the loop.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "circuits/suite.hpp"
#include "corpus/results_db.hpp"
#include "util/options.hpp"

namespace pilot::bench {

struct BenchArgs {
  circuits::SuiteSize suite = circuits::SuiteSize::kQuick;
  std::string suite_name = "quick";
  std::int64_t budget_ms = 2000;
  std::int64_t jobs = 0;
  std::uint64_t seed = 0;
  /// Aggregate records from this JSONL results db instead of running.
  std::string db;
  /// After an inline run, append the records to this JSONL file.
  std::string save_db;
};

/// Parses the common bench flags; returns false if --help was shown or the
/// arguments were invalid.
inline bool parse_bench_args(int argc, const char* const* argv,
                             const std::string& description, BenchArgs* out) {
  std::string suite = "quick";
  std::int64_t budget_ms = out->budget_ms;
  std::int64_t jobs = 0;
  std::int64_t seed = 0;
  std::string db;
  std::string save_db;
  OptionParser parser(description);
  parser.add_choice("suite", &suite, {"tiny", "quick", "full"},
                    "benchmark suite size (synthetic HWMCC substitute)");
  parser.add_int("budget-ms", &budget_ms,
                 "per-case wall-clock budget in milliseconds");
  parser.add_int("jobs", &jobs, "worker threads (0 = hardware concurrency)");
  parser.add_int("seed", &seed, "engine seed");
  parser.add_string("db", &db,
                    "aggregate records from this results db (JSONL, written "
                    "by pilot-bench run) instead of running the suite");
  parser.add_string("save-db", &save_db,
                    "append this run's records to a results db (JSONL)");
  if (!parser.parse(argc, argv)) return false;
  out->suite = circuits::suite_size_from_string(suite);
  out->suite_name = suite;
  out->budget_ms = budget_ms;
  out->jobs = jobs;
  out->seed = static_cast<std::uint64_t>(seed);
  out->db = db;
  out->save_db = save_db;
  return true;
}

/// Loads records for `engines` from a results db in case-major order.  The
/// figure harnesses pair per-engine vectors by index, so every engine must
/// cover exactly the same case set — asymmetric coverage (a partial or
/// subset-appended campaign) is an error, not a silent mispairing.  When
/// `budget_ms_out` is non-null it receives the largest per-case budget the
/// rows record, so timeout-edge plotting matches the campaign, not the
/// CLI default.
inline std::vector<check::RunRecord> records_from_db(
    const std::string& path, const std::vector<std::string>& engines,
    std::int64_t* budget_ms_out = nullptr) {
  corpus::ResultsDb db = corpus::ResultsDb::load(path);
  db.dedup();

  std::vector<std::string> case_order;  // first engine's order is canonical
  std::map<std::string, std::map<std::string, check::RunRecord>> by_key;
  std::int64_t budget_ms = 0;
  for (const std::string& spec : engines) {
    const std::vector<corpus::RunRow> rows = db.query(spec, "");
    if (rows.empty()) {
      throw std::runtime_error("results db " + path +
                               " has no rows for engine '" + spec +
                               "' — re-run pilot-bench with it");
    }
    auto& cases = by_key[spec];
    for (const corpus::RunRow& row : rows) {
      if (spec == engines.front()) case_order.push_back(row.record.case_name);
      cases[row.record.case_name] = row.record;
      budget_ms = std::max(budget_ms, row.context.budget_ms);
    }
  }

  std::vector<check::RunRecord> records;
  records.reserve(case_order.size() * engines.size());
  for (const std::string& case_name : case_order) {
    for (const std::string& spec : engines) {
      const auto& cases = by_key.at(spec);
      const auto it = cases.find(case_name);
      if (it == cases.end()) {
        throw std::runtime_error("results db " + path + ": engine '" + spec +
                                 "' has no row for case '" + case_name +
                                 "' — campaigns must cover the same cases");
      }
      records.push_back(it->second);
    }
  }
  for (const auto& [spec, cases] : by_key) {
    if (cases.size() != case_order.size()) {
      throw std::runtime_error("results db " + path + ": engine '" + spec +
                               "' covers " + std::to_string(cases.size()) +
                               " cases but '" + engines.front() +
                               "' covers " +
                               std::to_string(case_order.size()));
    }
  }
  if (budget_ms_out != nullptr && budget_ms > 0) *budget_ms_out = budget_ms;
  return records;
}

/// Runs the (suite × engines) matrix — or loads it from `--db` — with the
/// standard options.  In db mode `args.budget_ms` is updated to the
/// campaign's recorded budget so downstream timeout plotting is correct.
inline std::vector<check::RunRecord> run_suite(
    BenchArgs& args, const std::vector<std::string>& engines) {
  if (!args.db.empty()) {
    try {
      return records_from_db(args.db, engines, &args.budget_ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
      std::exit(1);
    }
  }

  const std::vector<circuits::CircuitCase> cases =
      circuits::make_suite(args.suite);
  check::RunMatrixOptions options;
  options.budget_ms = args.budget_ms;
  options.jobs = static_cast<std::size_t>(args.jobs);
  options.seed = args.seed;
  std::vector<check::RunRecord> records =
      check::run_matrix(cases, engines, options);

  if (!args.save_db.empty()) {
    const corpus::RunContext context = corpus::make_run_context(
        "suite:" + args.suite_name, args.budget_ms, args.seed);
    corpus::ResultsDb::Writer writer(args.save_db);
    for (const check::RunRecord& r : records) writer.append({r, context});
    std::fprintf(stderr, "[bench] appended %zu records to %s\n",
                 records.size(), args.save_db.c_str());
  }
  return records;
}

/// Groups records per engine spec, preserving case order.
inline std::map<std::string, std::vector<check::RunRecord>> by_engine(
    const std::vector<check::RunRecord>& records) {
  std::map<std::string, std::vector<check::RunRecord>> out;
  for (const auto& r : records) out[r.engine].push_back(r);
  return out;
}

/// Paper-style configuration label (Table 1 row names).  ABC-PDR's plain
/// dropping with ternary lifting is exactly ic3-down (its alias "pdr").
inline std::string paper_label(const std::string& spec) {
  if (spec == "ic3-down" || spec == "pdr") return "RIC3/ABC-PDR";
  if (spec == "ic3-down-pl") return "RIC3-pl";
  if (spec == "ic3-ctg") return "IC3ref";
  if (spec == "ic3-ctg-pl") return "IC3ref-pl";
  if (spec == "ic3-cav23") return "IC3ref-CAV23";
  return spec;
}

}  // namespace pilot::bench
