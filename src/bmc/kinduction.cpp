#include "bmc/kinduction.hpp"

#include "bmc/bmc.hpp"
#include "sat/solver.hpp"
#include "ts/unroller.hpp"

namespace pilot::bmc {
namespace {

/// Adds "state at frame a != state at frame b" to the step solver:
///   diff_ab = OR_i (x_i^a XOR x_i^b), asserted as a unit.
void add_state_disequality(sat::Solver& solver, const ts::Unroller& unroller,
                           const ts::TransitionSystem& ts, int a, int b) {
  std::vector<sat::Lit> diff_bits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    const sat::Lit xa = sat::Lit::make(unroller.state_var(i, a));
    const sat::Lit xb = sat::Lit::make(unroller.state_var(i, b));
    const sat::Lit d = sat::Lit::make(solver.new_var());
    // d ↔ xa XOR xb  (only the → direction is needed for disequality, but
    // both keep the encoding tight).
    solver.add_ternary(~d, xa, xb);
    solver.add_ternary(~d, ~xa, ~xb);
    solver.add_ternary(d, ~xa, xb);
    solver.add_ternary(d, xa, ~xb);
    diff_bits.push_back(d);
  }
  if (diff_bits.empty()) {
    // No latches: states are trivially equal; force UNSAT of the path.
    solver.add_clause(std::vector<sat::Lit>{});
    return;
  }
  solver.add_clause(diff_bits);
}

}  // namespace

KindResult run_kinduction(const ts::TransitionSystem& ts,
                          const KindOptions& options, pilot::Deadline deadline,
                          const pilot::CancelToken* cancel) {
  Timer timer;
  KindResult result;
  if (cancel != nullptr) deadline = deadline.with_cancel(*cancel);

  sat::Solver base_solver;
  base_solver.set_seed(options.seed);
  ts::Unroller base(ts, base_solver, /*assert_init=*/true);

  sat::Solver step_solver;
  step_solver.set_seed(options.seed);
  ts::Unroller step(ts, step_solver, /*assert_init=*/false);

  const auto finish = [&](KindResult& r) -> KindResult& {
    r.seconds = timer.seconds();
    r.sat_stats = base_solver.stats();
    r.sat_stats += step_solver.stats();
    return r;
  };

  for (int k = 0; k <= options.max_k; ++k) {
    if (deadline.expired()) {
      return finish(result);
    }
    // Base case: counterexample of length k?
    {
      obs::PhaseScope phase(&result.phases, obs::Phase::kUnroll);
      base.extend_to(k);
    }
    if (options.progress != nullptr) {
      obs::ProgressSnapshot s;
      s.frames = static_cast<std::uint64_t>(k);
      sat::SolverStats combined = base_solver.stats();
      combined += step_solver.stats();
      s.sat_solves = combined.solve_calls;
      s.sat_conflicts = combined.conflicts;
      options.progress->publish(s);
    }
    {
      obs::PhaseScope phase(&result.phases, obs::Phase::kSatSolve);
      const std::vector<sat::Lit> assumptions{base.bad(k)};
      const sat::SolveResult res = base_solver.solve(assumptions, deadline);
      if (res == sat::SolveResult::kUnknown) break;
      if (res == sat::SolveResult::kSat) {
        result.verdict = KindVerdict::kUnsafe;
        result.k = k;
        result.trace = extract_unrolled_trace(base_solver, base, ts, k);
        return finish(result);
      }
    }
    // Step case: ¬bad at frames 0..k, bad at frame k+1, all states distinct.
    {
      obs::PhaseScope phase(&result.phases, obs::Phase::kUnroll);
      step.extend_to(k + 1);
      step_solver.add_unit(~step.bad(k));  // frames 0..k stay good
      if (options.simple_path) {
        for (int prev = 0; prev < k + 1; ++prev) {
          add_state_disequality(step_solver, step, ts, prev, k + 1);
        }
      }
    }
    {
      obs::PhaseScope phase(&result.phases, obs::Phase::kSatSolve);
      const std::vector<sat::Lit> assumptions{step.bad(k + 1)};
      const sat::SolveResult res = step_solver.solve(assumptions, deadline);
      if (res == sat::SolveResult::kUnknown) break;
      if (res == sat::SolveResult::kUnsat) {
        result.verdict = KindVerdict::kSafe;
        result.k = k;
        return finish(result);
      }
    }
  }
  if (result.verdict == KindVerdict::kUnknown && !deadline.expired()) {
    result.verdict = KindVerdict::kBoundReached;
    result.k = options.max_k;
  }
  return finish(result);
}

}  // namespace pilot::bmc
