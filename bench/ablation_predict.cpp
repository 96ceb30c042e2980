/// \file ablation_predict.cpp
/// Ablations of the prediction design choices (not a paper table; supports
/// the analysis in §4.3 and the future-work discussion):
///   A. clearing failure_push at each propagation (paper line 44) vs never
///   B. diff-set refinement on failed candidates (line 27) vs naive retry
///   C. single-literal candidates (Eq. 6) vs up-to-two-literal extensions
///   D. core-shrinking validated predictions vs taking them verbatim
/// Each variant is one --set patch on top of the IC3ref-pl (ctg) engine.
#include "bench/bench_common.hpp"

using namespace pilot;
using namespace pilot::bench;

namespace {

struct Variant {
  const char* name;
  std::vector<std::string> set;  // ic3::ConfigPatch items
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  if (!parse_bench_args(argc, argv,
                        "ablation_predict — prediction design ablations",
                        &args)) {
    return 1;
  }

  const std::vector<Variant> variants = {
      {"pl (paper)", {}},
      {"A: keep failure_push", {"clear_failure_push_on_propagate=off"}},
      {"B: no diff refine", {"predict_refine_diff=off"}},
      {"C: 2-lit candidates", {"predict_max_extra_lits=2"}},
      {"D: core-shrink preds", {"predict_core_shrink=on"}},
  };

  const std::vector<circuits::CircuitCase> cases =
      circuits::make_suite(args.suite);
  std::printf("Prediction ablations (%zu cases, %lld ms budget)\n\n",
              cases.size(), static_cast<long long>(args.budget_ms));
  std::printf("%-22s %8s %10s %10s %10s %12s\n", "variant", "solved",
              "SR_lp%", "SR_fp%", "SR_adv%", "total-s");

  for (const Variant& v : variants) {
    check::RunMatrixOptions options;
    options.budget_ms = args.budget_ms;
    options.jobs = static_cast<std::size_t>(args.jobs);
    options.seed = args.seed;
    options.patch = ic3::ConfigPatch::parse(v.set);
    // The soundness gate (strict) aborts on a verdict that contradicts
    // its case's expected status.
    int solved = 0;
    double sum_lp = 0.0;
    double sum_fp = 0.0;
    double sum_adv = 0.0;
    double total_s = 0.0;
    int counted = 0;
    for (const check::RunRecord& r :
         check::run_matrix(cases, {"ic3-ctg-pl"}, options)) {
      if (r.solved) ++solved;
      total_s += r.seconds;
      if (r.stats.num_generalizations > 0) {
        sum_lp += r.stats.sr_lp();
        sum_fp += r.stats.sr_fp();
        sum_adv += r.stats.sr_adv();
        ++counted;
      }
    }
    if (counted == 0) counted = 1;
    std::printf("%-22s %8d %10.2f %10.2f %10.2f %12.2f\n", v.name, solved,
                100.0 * sum_lp / counted, 100.0 * sum_fp / counted,
                100.0 * sum_adv / counted, total_s);
  }
  std::printf(
      "\nReading: variant A trades stale CTPs for hit rate; B shows the\n"
      "refinement's query savings; C/D probe the paper's future-work axis\n"
      "(raising prediction rate).\n");
  return 0;
}
