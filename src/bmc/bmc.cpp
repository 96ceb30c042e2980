#include "bmc/bmc.hpp"

#include "ic3/cube.hpp"
#include "sat/solver.hpp"
#include "ts/unroller.hpp"

namespace pilot::bmc {
namespace {

void publish_bound(obs::ProgressSink* sink, int k,
                   const sat::SolverStats& stats) {
  if (sink == nullptr) return;
  obs::ProgressSnapshot s;
  s.frames = static_cast<std::uint64_t>(k);
  s.sat_solves = stats.solve_calls;
  s.sat_conflicts = stats.conflicts;
  sink->publish(s);
}

}  // namespace

Trace extract_unrolled_trace(const sat::Solver& solver,
                             const ts::Unroller& unroller,
                             const ts::TransitionSystem& ts, int k) {
  Trace trace;
  for (int f = 0; f <= k; ++f) {
    std::vector<sat::Lit> state;
    for (std::size_t i = 0; i < ts.num_latches(); ++i) {
      const sat::LBool v =
          solver.model_value(sat::Lit::make(unroller.state_var(i, f)));
      if (v.is_undef()) continue;
      state.push_back(sat::Lit::make(ts.state_var(i), v.is_false()));
    }
    std::vector<sat::Lit> inputs;
    for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
      const sat::LBool v =
          solver.model_value(sat::Lit::make(unroller.input_var(i, f)));
      if (v.is_undef()) continue;
      inputs.push_back(sat::Lit::make(ts.input_var(i), v.is_false()));
    }
    trace.states.push_back(ic3::Cube::from_lits(std::move(state)));
    trace.inputs.push_back(std::move(inputs));
  }
  return trace;
}

BmcResult run_bmc(const ts::TransitionSystem& ts, const BmcOptions& options,
                  pilot::Deadline deadline, const pilot::CancelToken* cancel) {
  Timer timer;
  BmcResult result;
  if (cancel != nullptr) deadline = deadline.with_cancel(*cancel);
  sat::Solver solver;
  solver.set_seed(options.seed);
  ts::Unroller unroller(ts, solver, /*assert_init=*/true);

  for (int k = 0; k <= options.max_bound; ++k) {
    if (deadline.expired()) {
      result.seconds = timer.seconds();
      result.sat_stats = solver.stats();
      return result;
    }
    {
      obs::PhaseScope phase(&result.phases, obs::Phase::kUnroll);
      unroller.extend_to(k);
    }
    const std::vector<sat::Lit> assumptions{unroller.bad(k)};
    const sat::SolveResult res = [&] {
      obs::PhaseScope phase(&result.phases, obs::Phase::kSatSolve);
      return solver.solve(assumptions, deadline);
    }();
    publish_bound(options.progress, k, solver.stats());
    if (res == sat::SolveResult::kUnknown) {
      result.seconds = timer.seconds();
      result.sat_stats = solver.stats();
      return result;  // kUnknown
    }
    if (res == sat::SolveResult::kSat) {
      result.verdict = BmcVerdict::kUnsafe;
      result.counterexample_length = k;
      result.trace = extract_unrolled_trace(solver, unroller, ts, k);
      result.seconds = timer.seconds();
      result.sat_stats = solver.stats();
      return result;
    }
  }
  result.verdict = BmcVerdict::kBoundReached;
  result.seconds = timer.seconds();
  result.sat_stats = solver.stats();
  return result;
}

}  // namespace pilot::bmc
