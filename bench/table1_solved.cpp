/// \file table1_solved.cpp
/// Reproduces **Table 1: Summary of Results** — solved / safe / unsafe
/// counts for the six configurations.
///
/// Paper setting: HWMCC'15+'17 (730 cases), 1000 s, AMD EPYC 7532.
/// Here: the synthetic suite (circuits/families.hpp) with a scaled budget.  The
/// expected *shape* is that each `-pl` configuration solves at least as
/// many cases as its baseline, with the gains concentrated in safe cases
/// (as in the paper: +9/+5 safe vs +1/+3 unsafe).
#include "bench/bench_common.hpp"

using namespace pilot;
using namespace pilot::bench;

int main(int argc, char** argv) {
  BenchArgs args;
  if (!parse_bench_args(argc, argv,
                        "table1_solved — Table 1: Summary of Results", &args)) {
    return 1;
  }
  const auto records = run_suite(args, check::paper_configurations());
  const auto groups = by_engine(records);
  const std::size_t total = groups.begin()->second.size();

  std::printf("Table 1: Summary of Results  (%zu cases, %lld ms budget)\n\n",
              total, static_cast<long long>(args.budget_ms));
  std::printf("%-14s %8s %8s %8s\n", "Configuration", "Solved", "Safe",
              "Unsafe");
  for (const std::string& spec : check::paper_configurations()) {
    int solved = 0;
    int safe = 0;
    int unsafe = 0;
    for (const auto& r : groups.at(spec)) {
      if (!r.solved) continue;
      ++solved;
      if (r.verdict == ic3::Verdict::kSafe) ++safe;
      if (r.verdict == ic3::Verdict::kUnsafe) ++unsafe;
    }
    std::printf("%-14s %8d %8d %8d\n", paper_label(spec).c_str(), solved,
                safe, unsafe);
  }
  std::printf(
      "\nShape check vs paper: each -pl row should solve >= its baseline\n"
      "(paper: RIC3 365->375, IC3ref 371->379 of 730 cases at 1000s).\n");
  return 0;
}
