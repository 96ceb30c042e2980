/// Frames tests: delta encoding, subsumption on insert, parent-lemma lookup
/// (Algorithm 2 line 1-7 semantics), pushes, the install log, and the
/// no-subsumed-lemma invariant under random installs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ic3/frames.hpp"
#include "util/rng.hpp"

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
  // {1} at level 2 subsumes both (levels 1 and 2 are ≤ 2).
  EXPECT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 2));
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

/// First pair (lower-level lemma, lemma at a level ≥ it) where the lower
/// one is a superset of the other, exact duplicates included; "" if none.
/// An O(n²) scan over every lemma pair.
std::string first_subsumed_lemma(const Frames& f) {
  for (std::size_t j = 1; j <= f.top_level(); ++j) {
    for (std::size_t a = 0; a < f.delta(j).size(); ++a) {
      const Cube& weak = f.delta(j)[a];
      for (std::size_t k = j; k <= f.top_level(); ++k) {
        for (std::size_t b = 0; b < f.delta(k).size(); ++b) {
          if (k == j && b == a) continue;
          const Cube& strong = f.delta(k)[b];
          if (strong.subset_of(weak)) {
            return weak.to_string() + "@" + std::to_string(j) + " ⊇ " +
                   strong.to_string() + "@" + std::to_string(k);
          }
        }
      }
    }
  }
  return "";
}

TEST(Frames, RandomInstallsKeepNoLemmaSubsumedAtOrAbove) {
  // A solver rebuild replays delta(j) for every j as it stands, so Frames
  // alone must keep the lemma set free of redundancy: no lemma at level j is
  // a superset of another lemma at a level ≥ j.  Random mix of add_lemma
  // and push_lemma over 6 latches and 4 levels, checked after every install.
  constexpr std::size_t kLatches = 6;
  constexpr std::size_t kTop = 4;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Frames f;
    f.ensure_level(kTop);
    for (int step = 0; step < 200; ++step) {
      std::vector<std::pair<std::size_t, Cube>> pushable;
      for (std::size_t j = 1; j < kTop; ++j) {
        for (const Cube& c : f.delta(j)) pushable.emplace_back(j, c);
      }
      if (!pushable.empty() && rng.below(3) == 0) {
        auto [level, cube] = pushable[rng.below(pushable.size())];
        f.push_lemma(std::move(cube), level);
      } else {
        std::vector<Lit> lits;
        for (std::size_t v = 0; v < kLatches; ++v) {
          if (rng.below(2) == 0) {
            lits.push_back(Lit::make(static_cast<Var>(v), rng.below(2) == 0));
          }
        }
        if (lits.empty()) continue;
        f.add_lemma(Cube::from_lits(std::move(lits)),
                    static_cast<std::size_t>(rng.range(1, kTop)));
      }
      ASSERT_EQ(first_subsumed_lemma(f), "")
          << "seed " << seed << ", step " << step;
    }
  }
}

}  // namespace
}  // namespace pilot::ic3
