/// Batched generalization probes (SolverManager::batch_drop_probe and the
/// gen-strategy loop around it): one SAT solve over variable-disjoint
/// copies of R ∧ T answers the single-drop query of every group member.
///
/// Two layers of checks:
///  - unit: a batched probe agrees with the sequential single-drop queries
///    it replaces, member by member, on both the SAT and the UNSAT side;
///  - engine A/B: gen_batch=4 vs gen_batch=1 on a family set produces
///    identical verdicts/invariants while spending at least 25% fewer
///    candidate-drop solves (the ISSUE's acceptance bar; measured ~30% on
///    this set, ~44% on suite:quick).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

/// Full-state cube of a 4-latch circuit with the i-th latch's sign taken
/// from bit i of `bits` (true bit = positive literal).
Cube state_cube(const ts::TransitionSystem& ts, std::uint32_t bits) {
  std::vector<Lit> lits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    lits.push_back(Lit::make(ts.state_var(i), ((bits >> i) & 1u) == 0));
  }
  return Cube::from_lits(std::move(lits));
}

/// Installs the token ring's one-hot invariant as level-2 lemmas (every
/// two-token cube plus the zero-token cube), so R_1/R_2 are exactly the
/// one-hot states and single-drop queries have both outcomes.
void install_one_hot_invariant(const ts::TransitionSystem& ts,
                               SolverManager& solvers, Frames& frames) {
  std::vector<Cube> lemmas;
  std::vector<Lit> all_zero;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    all_zero.push_back(Lit::make(ts.state_var(i), true));
    for (std::size_t j = i + 1; j < ts.num_latches(); ++j) {
      lemmas.push_back(Cube::from_lits(
          {Lit::make(ts.state_var(i)), Lit::make(ts.state_var(j))}));
    }
  }
  lemmas.push_back(Cube::from_lits(std::move(all_zero)));
  for (const Cube& lemma : lemmas) {
    frames.add_lemma(lemma, 2);
    solvers.add_lemma_clause(lemma, 2);
  }
}

// A batched probe must agree with the sequential single-drop queries it
// replaces: SAT ⟺ every member's own query is SAT (with one CTI each),
// UNSAT ⟹ the refuted member's query is UNSAT and the shrunk drop is a
// subcube the sequential path also proves inductive.
TEST(BatchDropProbe, AgreesWithSequentialSingleDropQueries) {
  const auto cc = circuits::token_ring_safe(4);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const Deadline deadline = Deadline::in_seconds(120);
  std::size_t sat_probes = 0;
  std::size_t unsat_probes = 0;
  for (std::uint32_t bits = 0; bits < 16; ++bits) {
    Config cfg;
    cfg.gen_batch = 4;
    Ic3Stats stats;
    SolverManager solvers(ts, cfg, stats);
    Frames frames;
    solvers.ensure_level(2);
    frames.ensure_level(2);
    install_one_hot_invariant(ts, solvers, frames);
    const Cube cube = state_cube(ts, bits);
    // Group members whose candidate cube\m stays clear of I, as the mic
    // loop guarantees before probing.
    std::vector<Lit> group;
    for (const Lit l : cube) {
      if (group.size() == 3) break;
      if (ts.cube_intersects_init(cube.without(l).lits())) continue;
      group.push_back(l);
    }
    if (group.size() < 2) continue;
    SolverManager::BatchProbeResult res;
    const bool unsat =
        solvers.batch_drop_probe(cube, group, 1, frames, &res, deadline);
    // Re-answer every member's single-drop query on the main solver.
    std::vector<bool> member_inductive;
    for (const Lit m : group) {
      member_inductive.push_back(solvers.relative_inductive(
          cube.without(m), 1, false, nullptr, deadline));
    }
    if (unsat) {
      ++unsat_probes;
      ASSERT_LT(res.member_index, group.size()) << "bits=" << bits;
      const Lit m = group[res.member_index];
      EXPECT_TRUE(member_inductive[res.member_index])
          << "bits=" << bits << ": batch refuted " << m.to_string()
          << " but its sequential drop query is SAT";
      // The shrunk drop is a subcube of cube \ m that the sequential path
      // confirms inductive (adoption-soundness of the batched answer).
      EXPECT_FALSE(res.dropped.contains(m)) << "bits=" << bits;
      EXPECT_TRUE(res.dropped.subset_of(cube)) << "bits=" << bits;
      EXPECT_FALSE(ts.cube_intersects_init(res.dropped.lits()))
          << "bits=" << bits;
      EXPECT_TRUE(solvers.relative_inductive(res.dropped, 1, false, nullptr,
                                             deadline))
          << "bits=" << bits << ": shrunk batch drop is not inductive";
    } else {
      ++sat_probes;
      // SAT defeats the whole group: every member's query must be SAT and
      // each copy hands back one CTI.
      ASSERT_EQ(res.cti_states.size(), group.size()) << "bits=" << bits;
      ASSERT_EQ(res.cti_inputs.size(), group.size()) << "bits=" << bits;
      for (std::size_t k = 0; k < group.size(); ++k) {
        EXPECT_FALSE(member_inductive[k])
            << "bits=" << bits << ": batch SAT but member "
            << group[k].to_string() << " is sequentially inductive";
        EXPECT_EQ(res.cti_states[k].size(), ts.num_latches())
            << "bits=" << bits;
      }
    }
  }
  // The 16 states of the 4-ring exercise both probe outcomes.
  EXPECT_GT(sat_probes, 0u);
  EXPECT_GT(unsat_probes, 0u);
}

// The CTI handed back for each group member is the model of that member's
// copy of R ∧ ¬(cube\m) ∧ T ∧ (cube\m)′: a full state cube that satisfies
// the temporary clause ¬(cube\m), i.e. falsifies at least one candidate
// literal.  That is exactly the property the gen loop's lazy defeat
// validation re-checks after the cube shrinks.
TEST(BatchDropProbe, CtiStatesFalsifyTheirCandidate) {
  const auto cc = circuits::counter_unsafe(4, 9);
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
  const Deadline deadline = Deadline::in_seconds(120);
  Config cfg;
  cfg.gen_batch = 3;
  Ic3Stats stats;
  SolverManager solvers(ts, cfg, stats);
  Frames frames;
  solvers.ensure_level(1);
  frames.ensure_level(1);
  bool exercised = false;
  for (std::uint32_t bits = 0; bits < 16 && !exercised; ++bits) {
    const Cube cube = state_cube(ts, bits);
    std::vector<Lit> group(cube.lits().begin(), cube.lits().begin() + 3);
    SolverManager::BatchProbeResult res;
    if (solvers.batch_drop_probe(cube, group, 1, frames, &res, deadline)) {
      continue;  // UNSAT — no CTIs to validate
    }
    exercised = true;
    for (std::size_t k = 0; k < group.size(); ++k) {
      ASSERT_EQ(res.cti_states[k].size(), ts.num_latches())
          << "bits=" << bits << " member " << k;
      bool falsifies_candidate = false;
      for (const Lit l : cube) {
        if (l == group[k]) continue;
        falsifies_candidate =
            falsifies_candidate || res.cti_states[k].contains(~l);
      }
      EXPECT_TRUE(falsifies_candidate)
          << "bits=" << bits << " member " << k
          << ": CTI does not satisfy the temporary clause of its candidate";
    }
  }
  EXPECT_TRUE(exercised) << "no SAT probe found on counter_unsafe(4,9)";
}

// ----- engine A/B: verdict identity + the ≥25% solve-reduction bar ----------

std::vector<circuits::CircuitCase> family_set() {
  std::vector<circuits::CircuitCase> cases;
  cases.push_back(circuits::counter_unsafe(4, 9));
  cases.push_back(circuits::counter_unsafe(4, 15));
  cases.push_back(circuits::counter_unsafe(5, 17));
  cases.push_back(circuits::counter_unsafe(5, 31));
  cases.push_back(circuits::counter_enable_unsafe(4, 9));
  cases.push_back(circuits::counter_enable_unsafe(5, 17));
  cases.push_back(circuits::counter_wrap_safe(5, 9, 31));
  cases.push_back(circuits::saturating_accumulator_unsafe(4, 11));
  return cases;
}

Result run_engine(const ts::TransitionSystem& ts, int batch) {
  Config cfg;
  cfg.gen_spec = "down";
  cfg.gen_batch = batch;
  Engine engine(ts, cfg);
  return engine.check(Deadline::in_seconds(300));
}

TEST(BatchedGeneralization, VerdictsIdenticalAndSolvesReducedOnFamilySet) {
  std::uint64_t sequential_solves = 0;
  std::uint64_t batched_solves = 0;
  std::uint64_t batched_answers = 0;
  for (const circuits::CircuitCase& cc : family_set()) {
    const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(cc.aig);
    const Result seq = run_engine(ts, 1);
    const Result bat = run_engine(ts, 4);
    EXPECT_EQ(seq.verdict,
              cc.expected_safe ? Verdict::kSafe : Verdict::kUnsafe)
        << cc.name;
    EXPECT_EQ(bat.verdict, seq.verdict) << cc.name;
    EXPECT_EQ(bat.frames, seq.frames) << cc.name;
    ASSERT_EQ(bat.invariant.has_value(), seq.invariant.has_value())
        << cc.name;
    if (bat.invariant.has_value()) {
      EXPECT_EQ(bat.invariant->lemma_cubes, seq.invariant->lemma_cubes)
          << cc.name;
    }
    // batch=1 never touches the batch solver.
    EXPECT_EQ(seq.stats.num_batched_drop_solves, 0u) << cc.name;
    EXPECT_EQ(seq.stats.num_batched_drop_answers, 0u) << cc.name;
    // Candidate-drop work: every mic query plus every batched probe solve
    // on the batched side, against the plain mic-query count sequentially.
    sequential_solves += seq.stats.num_mic_queries;
    batched_solves +=
        bat.stats.num_mic_queries + bat.stats.num_batched_drop_solves;
    batched_answers += bat.stats.num_batched_drop_answers;
  }
  // The probes actually fired, and each solve answered more than one
  // candidate on average (the whole point of batching).
  EXPECT_GT(batched_answers, 0u);
  // The ISSUE's acceptance bar: ≥25% fewer candidate-drop solves.  The
  // family set above measures ~30%; fail only below the bar so circuit
  // tweaks have headroom without masking a real regression.
  EXPECT_LE(batched_solves * 4, sequential_solves * 3)
      << "batched=" << batched_solves << " sequential=" << sequential_solves
      << " — batched generalization lost its ≥25% solve reduction";
}

}  // namespace
}  // namespace pilot::ic3
