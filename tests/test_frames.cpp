/// Frames tests: delta encoding, subsumption on insert, parent-lemma lookup
/// (Algorithm 2 line 1-7 semantics), pushes, and the install log.
#include <gtest/gtest.h>

#include "ic3/frames.hpp"

namespace pilot::ic3 {
namespace {

Lit pos(int v) { return Lit::make(v); }
Lit neg(int v) { return Lit::make(v, true); }

TEST(Frames, AddAndQuery) {
  Frames f;
  f.ensure_level(3);
  EXPECT_EQ(f.top_level(), 3u);
  const Cube c = Cube::from_lits({pos(1), pos(2)});
  EXPECT_TRUE(f.add_lemma(c, 2));
  EXPECT_EQ(f.delta(2).size(), 1u);
  EXPECT_EQ(f.total_lemmas(), 1u);
}

TEST(Frames, RejectsLemmaSubsumedByHigherLevel) {
  Frames f;
  f.ensure_level(3);
  const Cube strong = Cube::from_lits({pos(1)});
  ASSERT_TRUE(f.add_lemma(strong, 3));
  // {1,2} at level 2 is weaker than {1} at level 3: rejected.
  EXPECT_FALSE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 2));
  EXPECT_EQ(f.total_lemmas(), 1u);
  // Same cube at a level above the existing one is NOT subsumed... but
  // level 3 is the top here, so re-adding at 3 is rejected too.
  EXPECT_FALSE(f.add_lemma(strong, 3));
}

TEST(Frames, NewLemmaDisplacesWeakerOnes) {
  Frames f;
  f.ensure_level(3);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 1));
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1), neg(3)}), 2));
  std::size_t removed = 0;
  // {1} at level 2 subsumes both (levels 1 and 2 are ≤ 2).
  EXPECT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 2, &removed));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(f.total_lemmas(), 1u);
  EXPECT_TRUE(f.delta(1).empty());
  EXPECT_EQ(f.delta(2).size(), 1u);
}

TEST(Frames, WeakerLemmaAtHigherLevelIsKept) {
  Frames f;
  f.ensure_level(3);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 1));
  // Weaker cube but holds at a higher frame: must be kept.
  EXPECT_TRUE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 3));
  EXPECT_EQ(f.total_lemmas(), 2u);
}

TEST(Frames, SubsumedAtRespectsLevels) {
  Frames f;
  f.ensure_level(3);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 2));
  const Cube query = Cube::from_lits({pos(1), pos(5)});
  EXPECT_TRUE(f.subsumed_at(query, 1));
  EXPECT_TRUE(f.subsumed_at(query, 2));
  EXPECT_FALSE(f.subsumed_at(query, 3));  // lemma's top level is 2
  EXPECT_FALSE(f.subsumed_at(Cube::from_lits({pos(5)}), 1));
}

TEST(Frames, ParentsOfMatchesAlgorithm2) {
  // parents_of(b, i) = lemmas exactly at delta(i) whose cube ⊆ b.
  Frames f;
  f.ensure_level(3);
  const Cube p1 = Cube::from_lits({pos(1), pos(4)});  // matches b, level 3
  const Cube p2 = Cube::from_lits({pos(1), neg(2)});  // matches b, level 2
  const Cube p3 = Cube::from_lits({pos(9)});          // does not match b
  ASSERT_TRUE(f.add_lemma(p2, 2));
  ASSERT_TRUE(f.add_lemma(p3, 2));
  ASSERT_TRUE(f.add_lemma(p1, 3));

  const Cube b = Cube::from_lits({pos(1), neg(2), pos(4)});
  // Only delta(2) lemmas count as parents at level 2 — the subsuming p1
  // lives at level 3 and is excluded (it is still in F_3, paper line 4).
  const std::vector<Cube> parents = f.parents_of(b, 2);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], p2);
  const std::vector<Cube> parents3 = f.parents_of(b, 3);
  ASSERT_EQ(parents3.size(), 1u);
  EXPECT_EQ(parents3[0], p1);
  // Level 0 and out-of-range levels yield nothing.
  EXPECT_TRUE(f.parents_of(b, 0).empty());
  EXPECT_TRUE(f.parents_of(b, 7).empty());
}

TEST(Frames, PushMovesLemmaUpAndDisplacesWeakerOnesThere) {
  Frames f;
  f.ensure_level(3);
  const Cube c = Cube::from_lits({pos(4), neg(5)});
  const Cube other = Cube::from_lits({pos(6)});
  const Cube weaker = Cube::from_lits({pos(4), neg(5), pos(7)});
  ASSERT_TRUE(f.add_lemma(other, 1));
  ASSERT_TRUE(f.add_lemma(c, 1));
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(8)}), 1));
  ASSERT_TRUE(f.add_lemma(weaker, 2));  // c at level 1 does not subsume it
  f.push_lemma(c, 1);
  // The others of delta(1) keep their order; c replaces `weaker` at 2.
  ASSERT_EQ(f.delta(1).size(), 2u);
  EXPECT_EQ(f.delta(1)[0], other);
  EXPECT_EQ(f.delta(1)[1], Cube::from_lits({pos(8)}));
  ASSERT_EQ(f.delta(2).size(), 1u);
  EXPECT_EQ(f.delta(2)[0], c);
  EXPECT_EQ(f.total_lemmas(), 3u);
}

TEST(Frames, InstallLogRecordsEveryInstall) {
  Frames f;
  f.ensure_level(3);
  EXPECT_EQ(f.install_count(), 0u);
  const Cube weak = Cube::from_lits({pos(1), pos(2)});
  const Cube strong = Cube::from_lits({pos(1)});

  // A new lemma is logged.
  ASSERT_TRUE(f.add_lemma(weak, 1));
  const std::uint64_t stamp = f.install_count();
  EXPECT_EQ(stamp, 1u);

  // A subsumed cube is rejected and not logged.
  ASSERT_TRUE(f.add_lemma(strong, 1));
  EXPECT_FALSE(f.add_lemma(weak, 1));
  EXPECT_FALSE(f.add_lemma(strong, 1));
  EXPECT_EQ(f.install_count(), 2u);

  // A push to the next level is logged.
  f.push_lemma(strong, 1);
  EXPECT_EQ(f.install_count(), 3u);

  // The subsuming replacement of `weak` and the push of `strong` are what
  // changed since the stamp, oldest first.  The push strengthens R_2 only.
  const auto since = f.installs_since(stamp);
  ASSERT_EQ(since.size(), 2u);
  EXPECT_EQ(since[0].level, 1u);
  EXPECT_EQ(since[0].from, 0u);
  EXPECT_EQ(since[0].cube, strong);
  EXPECT_EQ(since[1].level, 2u);
  EXPECT_EQ(since[1].from, 1u);
  EXPECT_EQ(since[1].cube, strong);
  EXPECT_TRUE(f.installs_since(f.install_count()).empty());
}

TEST(Frames, ForgettingOldInstallsKeepsStampsAbsolute) {
  Frames f;
  f.ensure_level(2);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 1));
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(2)}), 1));
  const std::uint64_t stamp = f.install_count();
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(3)}), 2));
  f.forget_installs_before(stamp);
  EXPECT_EQ(f.install_count(), 3u);
  const auto since = f.installs_since(stamp);
  ASSERT_EQ(since.size(), 1u);
  EXPECT_EQ(since[0].cube, Cube::from_lits({pos(3)}));
  f.forget_installs_before(stamp);  // no-op: already cut there
  EXPECT_EQ(f.installs_since(stamp).size(), 1u);
}

}  // namespace
}  // namespace pilot::ic3
