/// Predictor tests: parent discovery through the frames' CTP table, the
/// diff-set candidate construction of Equation 6, the empty-diff "push the
/// parent" path and its line-20 re-record, counter updates
/// (N_p / N_sp / N_fp), and a block-phase push failure feeding predict.
#include <gtest/gtest.h>

#include "circuits/families.hpp"
#include "ic3/predictor.hpp"
#include "ic3/solver_manager.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {
namespace {

/// Wrap-at-4 counter (3 bits): reachable states 0..3, all counts ≥ 4
/// unreachable.  A hand-steerable playground for prediction.
struct PredictorFixture {
  PredictorFixture()
      : cc(circuits::counter_wrap_safe(3, 4, 6)),
        ts(ts::TransitionSystem::from_aig(cc.aig)),
        solvers(ts, cfg, stats),
        predictor(solvers, frames, stats) {
    solvers.ensure_level(2);
    frames.ensure_level(2);
  }

  Cube state_cube(std::uint64_t value) {
    std::vector<Lit> lits;
    for (std::size_t i = 0; i < ts.num_latches(); ++i) {
      lits.push_back(Lit::make(ts.state_var(i), ((value >> i) & 1ULL) == 0));
    }
    return Cube::from_lits(std::move(lits));
  }

  /// Records a failed push of `lemma` from `level` whose CTP steps from
  /// count `from` into count `to`.
  void record_ctp(const Cube& lemma, std::size_t level, std::uint64_t from,
                  std::uint64_t to) {
    frames.record_push_ctp(lemma, level, state_cube(from), state_cube(to));
  }

  void install_lemma(const Cube& c, std::size_t level) {
    ASSERT_TRUE(frames.add_lemma(c, level));
    solvers.add_lemma_clause(c, level);
  }

  circuits::CircuitCase cc;
  ts::TransitionSystem ts;
  Config cfg;
  Ic3Stats stats;
  Frames frames;
  SolverManager solvers{ts, cfg, stats};
  Predictor predictor{solvers, frames, stats};
};

TEST(Predictor, NoParentsNoPrediction) {
  PredictorFixture f;
  const auto result = f.predictor.predict(f.state_cube(6), 1, Deadline{});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(f.stats.num_prediction_queries, 0u);
  EXPECT_EQ(f.stats.num_found_failed_parents, 0u);
}

TEST(Predictor, ParentWithoutRecordedFailureIsSkipped) {
  PredictorFixture f;
  // Parent lemma {bit2=1} ⊆ b in delta(1), but no CTP recorded.
  f.install_lemma(Cube::from_lits({Lit::make(f.ts.state_var(2))}), 1);
  const auto result = f.predictor.predict(f.state_cube(6), 2, Deadline{});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(f.stats.num_prediction_queries, 0u);   // lines 12-13: no query
  EXPECT_EQ(f.stats.num_found_failed_parents, 0u); // N_fp untouched
}

TEST(Predictor, EmptyDiffPushesParentSuccessfully) {
  PredictorFixture f;
  // Parent p = {bit2=1} (counts 4..7) at level 1; it IS inductive at
  // level 1 relative to R_1 (its own clause blocks the predecessors).
  const Cube p = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  f.install_lemma(p, 1);
  // Record a fake CTP t that intersects b = {count=6}: diff(b, t) = ∅.
  f.record_ctp(p, 1, 5, 6);
  const auto result = f.predictor.predict(f.state_cube(6), 2, Deadline{});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, p);  // the parent itself is the predicted lemma
  EXPECT_EQ(f.stats.num_prediction_queries, 1u);       // one SAT query
  EXPECT_EQ(f.stats.num_successful_predictions, 1u);   // N_sp
  EXPECT_EQ(f.stats.num_found_failed_parents, 1u);     // N_fp
}

TEST(Predictor, EmptyDiffFailedPushRefreshesCtp) {
  PredictorFixture f;
  // Parent p = {bit1=1, bit2=1} (counts 6,7) at level 1.  Pushing it to
  // level 2 fails: predecessor 5 ∈ R_1 steps into 6.
  const Cube p = Cube::from_lits(
      {Lit::make(f.ts.state_var(1)), Lit::make(f.ts.state_var(2))});
  f.install_lemma(p, 1);
  f.record_ctp(p, 1, 5, 6);
  // b = {count=6} = {bit0=0,bit1=1,bit2=1}; t = same state → empty diff.
  const auto result = f.predictor.predict(f.state_cube(6), 2, Deadline{});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(f.stats.num_prediction_queries, 1u);
  EXPECT_EQ(f.stats.num_successful_predictions, 0u);
  EXPECT_EQ(f.stats.num_found_failed_parents, 1u);  // parent was found
}

TEST(Predictor, DiffSetCandidateValidatesEquation6) {
  PredictorFixture f;
  // Parent p = {bit2=1} at level 1.  CTP t = count 5 (bit0=1,bit1=0,bit2=1).
  // b = count 6 (bit0=0,bit1=1,bit2=1).  diff(b,t) = {¬bit0, bit1}.
  // Candidate p ∪ {d}: {bit2, ¬bit0} (counts 4,6) or {bit2, bit1}
  // (counts 6,7).  {bit2, bit1}: predecessors 5 (→6) excluded? 5 ⊨ ¬cand?
  // 5 has bit1=0 → outside cand... 5 ∈ R_1 (R_1 only excludes bit2=1
  // via p? p is AT level 1 so R_1 includes ¬p: 5 has bit2=1 → blocked!).
  // So every predecessor into the candidate is blocked by ¬p: inductive.
  const Cube p = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  f.install_lemma(p, 1);
  f.record_ctp(p, 1, 4, 5);

  const Cube b = f.state_cube(6);
  const auto result = f.predictor.predict(b, 2, Deadline{});
  ASSERT_TRUE(result.has_value());
  // Predicted lemma: parent plus exactly one literal from diff(b, t).
  EXPECT_EQ(result->size(), p.size() + 1);
  EXPECT_TRUE(p.subset_of(*result));
  EXPECT_TRUE(result->subset_of(b));
  EXPECT_GE(f.stats.num_successful_predictions, 1u);
}

TEST(Predictor, ReadsOnlyTheFramesTable) {
  PredictorFixture f;
  const Cube p = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  f.install_lemma(p, 1);
  f.record_ctp(p, 1, 5, 6);
  // A propagation pass that does not visit (p, 1) drops its entry; then the
  // parent behaves as if it never failed (lines 12-13).
  (void)f.frames.take_push_ctps();
  const auto result = f.predictor.predict(f.state_cube(6), 2, Deadline{});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(f.stats.num_prediction_queries, 0u);
  EXPECT_EQ(f.stats.num_found_failed_parents, 0u);
}

TEST(Predictor, EmptyDiffFailedPushRecordsItsCtp) {
  PredictorFixture f;
  const Cube p = Cube::from_lits(
      {Lit::make(f.ts.state_var(1)), Lit::make(f.ts.state_var(2))});
  // An entry with an unknown predecessor, stamped before p's install: the
  // next pass could not skip the push on it.
  f.frames.record_push_ctp(p, 1, Cube{}, f.state_cube(6));
  f.install_lemma(p, 1);
  EXPECT_FALSE(f.frames.ctp_still_valid(*f.frames.push_ctp(p, 1), 1));
  // Line 20: the re-push of p fails (5 → 6), and its model replaces the
  // entry, stamped now.
  EXPECT_FALSE(f.predictor.predict(f.state_cube(6), 2, Deadline{}).has_value());
  const PushCtp* ctp = f.frames.push_ctp(p, 1);
  ASSERT_NE(ctp, nullptr);
  EXPECT_EQ(ctp->state, f.state_cube(5));
  EXPECT_EQ(ctp->successor, f.state_cube(6));
  EXPECT_EQ(ctp->stamp, f.frames.install_count());
  EXPECT_TRUE(f.frames.ctp_still_valid(*ctp, 1));
}

TEST(Predictor, BlockPhasePushFailureFeedsTheNextPredict) {
  PredictorFixture f;
  // The engine's block phase: the new lemma L = {bit1=1, bit2=1} (counts
  // 6, 7) fails its push from level 1 before it is installed (¬L is a
  // temporary clause of the query): 5 ∈ R_1 steps into 6.
  const Cube lemma = Cube::from_lits(
      {Lit::make(f.ts.state_var(1)), Lit::make(f.ts.state_var(2))});
  ASSERT_FALSE(f.solvers.relative_inductive(
      lemma, 1, /*cube_clause_in_frame=*/false, nullptr, Deadline{}));
  f.frames.record_push_ctp(lemma, 1, f.solvers.model_state(/*primed=*/false),
                           f.solvers.model_state(/*primed=*/true));
  f.install_lemma(lemma, 1);
  const PushCtp* ctp = f.frames.push_ctp(lemma, 1);
  ASSERT_NE(ctp, nullptr);
  EXPECT_EQ(ctp->successor, f.state_cube(6));
  // s falsifies L, so the lemma's own install leaves the CTP valid.
  EXPECT_TRUE(f.frames.ctp_still_valid(*ctp, 1));

  // b = count 7 has parent L; diff(b, t = 6) = {bit0=1}, so the one
  // candidate is L ∪ {bit0=1} = count 7, inductive since its only
  // predecessor 6 lies in L.
  const Cube b = f.state_cube(7);
  const auto result = f.predictor.predict(b, 2, Deadline{});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, lemma.with_lit(Lit::make(f.ts.state_var(0))));
  EXPECT_EQ(f.stats.num_prediction_queries, 1u);
  EXPECT_EQ(f.stats.num_successful_predictions, 1u);
  EXPECT_EQ(f.stats.num_found_failed_parents, 1u);
}

TEST(Predictor, PredictedLemmaBlocksTheObligationCube) {
  // End-to-end property on a real engine-like sequence: whatever predict()
  // returns must subsume b (so adding ¬result actually blocks b) and be
  // disjoint from the initial states.
  PredictorFixture f;
  const Cube p = Cube::from_lits({Lit::make(f.ts.state_var(2))});
  f.install_lemma(p, 1);
  f.record_ctp(p, 1, 4, 5);
  const Cube b = f.state_cube(6);
  const auto result = f.predictor.predict(b, 2, Deadline{});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->subset_of(b));
  EXPECT_FALSE(f.ts.cube_intersects_init(result->lits()));
  // And it must genuinely be relative-inductive at level 1.
  EXPECT_TRUE(f.solvers.relative_inductive(*result, 1, false, nullptr,
                                           Deadline{}));
}

}  // namespace
}  // namespace pilot::ic3
