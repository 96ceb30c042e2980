/// \file micro_ops.cpp
/// google-benchmark micro-benchmarks for the primitives whose costs the
/// paper reasons about: the relative-induction SAT query (the unit of cost
/// in generalization), diff-set computation (the unit of cost in
/// prediction), subsumption, and solver propagation throughput.
///
/// The headline comparison: one prediction validation query costs the same
/// as ONE variable-dropping query, while a full MIC pass costs up to |cube|
/// of them — that asymmetry is the paper's entire bet.
#include <benchmark/benchmark.h>

#include "aig/aig.hpp"
#include "aig/simulation.hpp"
#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "ic3/cube.hpp"
#include "ic3/engine.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"
#include "util/rng.hpp"

using namespace pilot;

namespace {

ic3::Cube random_cube(Rng& rng, int num_vars, int size) {
  std::vector<sat::Lit> lits;
  for (int i = 0; i < size; ++i) {
    const auto v = static_cast<sat::Var>(rng.below(num_vars));
    lits.push_back(sat::Lit::make(v, rng.chance(0.5)));
  }
  return ic3::Cube::from_lits(std::move(lits));
}

void BM_CubeDiff(benchmark::State& state) {
  Rng rng(7);
  const int size = static_cast<int>(state.range(0));
  const ic3::Cube a = random_cube(rng, 1000, size);
  const ic3::Cube b = random_cube(rng, 1000, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.diff(b));
  }
}
BENCHMARK(BM_CubeDiff)->Arg(8)->Arg(32)->Arg(128);

void BM_CubeSubsumption(benchmark::State& state) {
  Rng rng(11);
  const int size = static_cast<int>(state.range(0));
  const ic3::Cube big = random_cube(rng, 1000, size);
  std::vector<sat::Lit> sub(big.lits().begin(),
                            big.lits().begin() + big.size() / 2);
  const ic3::Cube small = ic3::Cube::from_sorted(std::move(sub));
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.subset_of(big));
  }
}
BENCHMARK(BM_CubeSubsumption)->Arg(8)->Arg(32)->Arg(128);

void BM_SolverPropagationThroughput(benchmark::State& state) {
  // Long implication chains: measures two-watched-literal propagation
  // (entirely binary clauses, so this is the implicit-binary-watch path).
  const int n = static_cast<int>(state.range(0));
  sat::Solver solver;
  solver.set_trail_reuse(false);  // isolate raw propagation, no reuse
  std::vector<sat::Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(solver.new_var());
  for (int i = 0; i + 1 < n; ++i) {
    solver.add_binary(sat::Lit::make(vars[i], true),
                      sat::Lit::make(vars[i + 1]));
  }
  for (auto _ : state) {
    const std::vector<sat::Lit> assumption{sat::Lit::make(vars[0])};
    benchmark::DoNotOptimize(solver.solve(assumption));
  }
}
BENCHMARK(BM_SolverPropagationThroughput)->Arg(1000)->Arg(10000);

void BM_AssumptionPrefixSolves(benchmark::State& state) {
  // The IC3 query shape: a long shared activation prefix guarding lemma
  // clauses, plus a short per-query tail.  Arg: trail reuse off (0) / on
  // (1) — the gap between the two is the win of not re-propagating the
  // prefix on every call.
  constexpr int kActs = 48;
  constexpr int kStateVars = 256;
  constexpr int kLemmasPerAct = 12;
  Rng rng(23);
  sat::Solver solver;
  solver.set_trail_reuse(state.range(0) != 0);
  std::vector<sat::Var> acts;
  std::vector<sat::Var> vars;
  for (int i = 0; i < kStateVars; ++i) vars.push_back(solver.new_var());
  for (int i = 0; i < kActs; ++i) acts.push_back(solver.new_var());
  for (int a = 0; a < kActs; ++a) {
    for (int c = 0; c < kLemmasPerAct; ++c) {
      // act_a → (¬x ∨ ¬y ∨ z): a guarded pseudo-lemma.
      solver.add_clause(
          {sat::Lit::make(acts[a], true),
           sat::Lit::make(static_cast<sat::Var>(rng.below(kStateVars)), true),
           sat::Lit::make(static_cast<sat::Var>(rng.below(kStateVars)), true),
           sat::Lit::make(static_cast<sat::Var>(rng.below(kStateVars)))});
    }
  }
  std::vector<sat::Lit> assumptions;
  for (int a = kActs; a-- > 0;) assumptions.push_back(sat::Lit::make(acts[a]));
  const std::size_t prefix = assumptions.size();
  for (auto _ : state) {
    assumptions.resize(prefix);
    // Varying two-literal tail after the stable activation prefix.
    assumptions.push_back(sat::Lit::make(
        static_cast<sat::Var>(rng.below(kStateVars)), rng.chance(0.5)));
    assumptions.push_back(sat::Lit::make(
        static_cast<sat::Var>(rng.below(kStateVars)), rng.chance(0.5)));
    benchmark::DoNotOptimize(solver.solve(assumptions));
  }
}
BENCHMARK(BM_AssumptionPrefixSolves)->Arg(0)->Arg(1);

void BM_BinaryLemmaPropagation(benchmark::State& state) {
  // IC3 generates thousands of 2-literal clauses (unit lemmas under an
  // activation literal, init-cube guards).  Assuming the activation
  // literals cascades through every one of them — the implicit binary
  // watch path end to end.
  const int n = static_cast<int>(state.range(0));
  constexpr int kActs = 16;
  sat::Solver solver;
  std::vector<sat::Var> acts;
  std::vector<sat::Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(solver.new_var());
  for (int i = 0; i < kActs; ++i) acts.push_back(solver.new_var());
  for (int i = 0; i < n; ++i) {
    solver.add_binary(sat::Lit::make(acts[i % kActs], true),
                      sat::Lit::make(vars[i], (i & 1) != 0));
  }
  std::vector<sat::Lit> assumptions;
  for (int a = kActs; a-- > 0;) assumptions.push_back(sat::Lit::make(acts[a]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(assumptions));
    // Alternate dropping the lowest activation literal so consecutive
    // calls exercise both full reuse and a diverging suffix.
    if (assumptions.size() == static_cast<std::size_t>(kActs)) {
      assumptions.pop_back();
    } else {
      assumptions.push_back(sat::Lit::make(acts[0]));
    }
  }
}
BENCHMARK(BM_BinaryLemmaPropagation)->Arg(2000)->Arg(8000);

void BM_ReduceDbIc3Learnts(benchmark::State& state) {
  // Learnt-database churn under an IC3-like mix: a hard combinational
  // core that generates many small learnts, solved under a rotating
  // assumption pair with a conflict budget, so reduce_db runs with a
  // realistic glue distribution instead of a uniform one.
  constexpr int kVars = 160;
  constexpr int kClauses = 680;
  Rng build_rng(41);
  sat::Solver solver;
  std::vector<sat::Var> vars;
  std::vector<bool> hidden;  // planted solution keeps the instance SAT
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(solver.new_var());
    hidden.push_back(build_rng.chance(0.5));
  }
  for (int i = 0; i < kClauses; ++i) {
    std::vector<sat::Lit> clause;
    bool satisfied = false;
    for (int j = 0; j < 3; ++j) {
      const auto v = static_cast<sat::Var>(build_rng.below(kVars));
      const bool sign = build_rng.chance(0.5);
      satisfied = satisfied || (sign == !hidden[v]);
      clause.push_back(sat::Lit::make(v, sign));
    }
    if (!satisfied) clause.back() = ~clause.back();
    solver.add_clause(clause);
  }
  solver.set_conflict_budget(400);
  Rng rng(57);
  for (auto _ : state) {
    const std::vector<sat::Lit> assumptions{
        sat::Lit::make(static_cast<sat::Var>(rng.below(kVars)),
                       rng.chance(0.5)),
        sat::Lit::make(static_cast<sat::Var>(rng.below(kVars)),
                       rng.chance(0.5))};
    benchmark::DoNotOptimize(solver.solve(assumptions));
  }
}
BENCHMARK(BM_ReduceDbIc3Learnts);

void BM_RelativeInductionQuery(benchmark::State& state) {
  // The cost unit of generalization: one relative-induction query on a
  // mid-size ring circuit.
  const auto cc = circuits::token_ring_safe(16);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  ic3::Config cfg;
  ic3::Ic3Stats stats;
  ic3::SolverManager solvers(ts, cfg, stats);
  solvers.ensure_level(1);
  // Cube: two tokens present (a blockable state set).
  const ic3::Cube cube = ic3::Cube::from_lits(
      {sat::Lit::make(ts.state_var(1)), sat::Lit::make(ts.state_var(3))});
  for (auto _ : state) {
    ic3::Cube core;
    benchmark::DoNotOptimize(
        solvers.relative_inductive(cube, 0, false, &core, Deadline{}));
  }
}
BENCHMARK(BM_RelativeInductionQuery);

void BM_FullCheckCounterSafe(benchmark::State& state) {
  // End-to-end engine cost on a small safe instance (per-iteration fresh
  // engine; dominated by frame convergence).
  const auto cc = circuits::counter_wrap_safe(6, 32, 63);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  for (auto _ : state) {
    ic3::Config cfg;
    cfg.gen_spec = state.range(0) != 0 ? "predict" : "ctg";
    ic3::Engine engine(ts, cfg);
    benchmark::DoNotOptimize(engine.check());
  }
}
BENCHMARK(BM_FullCheckCounterSafe)->Arg(0)->Arg(1);

void BM_TernaryPacked_vs_Byte(benchmark::State& state) {
  // One full combinational sweep per simulated ternary pattern: the byte
  // backend (Arg 0) evaluates one pattern per sweep, the packed backend
  // (Arg 1) 32 per word-parallel sweep.  Items-processed normalizes per
  // pattern, so the reported rate is directly comparable — this is why the
  // ternary lifter runs on the packed simulator.
  const auto cc = circuits::token_ring_safe(64);
  const bool packed = state.range(0) != 0;
  aig::TernarySimulator byte_sim(cc.aig);
  aig::PackedTernarySimulator packed_sim(cc.aig);
  Rng rng(5150);
  std::vector<aig::TV> latch_values(cc.aig.num_latches());
  std::vector<aig::TV> input_values(cc.aig.num_inputs());
  for (auto& v : latch_values) {
    v = rng.chance(0.3) ? aig::TV::kX
                        : (rng.chance(0.5) ? aig::TV::kOne : aig::TV::kZero);
  }
  std::int64_t patterns = 0;
  for (auto _ : state) {
    if (packed) {
      packed_sim.compute(latch_values, input_values);
      benchmark::DoNotOptimize(
          packed_sim.value(aig::AigLit::make(1, false), 31));
      patterns += static_cast<std::int64_t>(
          aig::PackedTernarySimulator::kLanes);
    } else {
      byte_sim.compute(latch_values, input_values);
      benchmark::DoNotOptimize(byte_sim.value(aig::AigLit::make(1, false)));
      ++patterns;
    }
  }
  state.SetItemsProcessed(patterns);
}
BENCHMARK(BM_TernaryPacked_vs_Byte)->Arg(0)->Arg(1);

void BM_CanonicalHash(benchmark::State& state) {
  // The serving layer's key derivation: one structural FNV-1a pass over the
  // parsed AIG (inputs, latches + resets, gates, outputs — no comments or
  // symbol names).  This runs once per submitted circuit, so it has to be
  // negligible next to even a trivial solve.  Arg: ring size.
  const auto cc = circuits::token_ring_safe(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::canonical_hash(cc.aig));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cc.aig.num_ands()));
}
BENCHMARK(BM_CanonicalHash)->Arg(16)->Arg(64)->Arg(256);

void BM_VerdictCacheLookup(benchmark::State& state) {
  // The three costs a cache client can pay: Arg 0 — a miss (hash probe
  // only); Arg 1 — a raw hit via peek(), the map cost with no soundness
  // check; Arg 2 — a serving hit via lookup(), which re-checks the stored
  // certificate against the submitted circuit before returning it.  The
  // Arg 1 / Arg 2 gap is the price of revalidate-before-serve; the win
  // claimed by the warm-rerun gate is cold-solve minus Arg 2, not Arg 1.
  const int mode = static_cast<int>(state.range(0));
  const auto cc = circuits::token_ring_safe(8);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig, 0);

  check::CheckOptions co;
  co.engine_spec = "ic3-ctg";
  co.budget_ms = 60000;
  const check::CheckResult r = check::check_ts(ts, co);
  serve::CacheEntry entry;
  entry.hash = aig::canonical_hash_hex(cc.aig);
  entry.verdict = r.verdict;
  entry.engine = co.engine_spec;
  entry.seconds = r.seconds;
  entry.frames = r.frames;
  entry.cert_text =
      r.certificate ? cert::to_text(*r.certificate) : std::string();
  entry.case_name = cc.name;
  entry.timestamp = "2026-01-01T00:00:00Z";

  serve::VerdictCache cache;
  if (!cache.store(entry)) {
    state.SkipWithError("failed to store benchmark cache entry");
    return;
  }
  const std::string absent(16, '0');
  for (auto _ : state) {
    switch (mode) {
      case 0:
        benchmark::DoNotOptimize(cache.lookup(absent, ts));
        break;
      case 1:
        benchmark::DoNotOptimize(cache.peek(entry.hash));
        break;
      default:
        benchmark::DoNotOptimize(cache.lookup(entry.hash, ts));
        break;
    }
  }
}
BENCHMARK(BM_VerdictCacheLookup)->Arg(0)->Arg(1)->Arg(2);

// A stand-in for a zone-instrumented engine step: a few microseconds of
// register-only work, so the zone cost shows up as a percentage a CI gate
// can reason about rather than vanishing into noise or dominating.
std::uint64_t trace_overhead_workload(std::uint64_t x) {
  for (int i = 0; i < 2048; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

void BM_TraceZoneOverhead(benchmark::State& state) {
  // Arg 0: baseline, no zone.  Arg 1: zone with tracing runtime-off (one
  // relaxed load + branch — the cost every user pays, budget < 1%).  Arg 2:
  // zone recording into the ring (budget < 5%).
  const int mode = static_cast<int>(state.range(0));
  obs::reset_trace();
  obs::set_trace_enabled(mode == 2);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    if (mode == 0) {
      benchmark::DoNotOptimize(x = trace_overhead_workload(x));
    } else {
      PILOT_TRACE_ZONE("bench_zone");
      benchmark::DoNotOptimize(x = trace_overhead_workload(x));
    }
  }
  obs::set_trace_enabled(false);
  obs::reset_trace();
}
BENCHMARK(BM_TraceZoneOverhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
