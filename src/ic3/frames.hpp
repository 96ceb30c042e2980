/// \file frames.hpp
/// The monotone frame sequence F_0 ⊇ F_1 ⊇ … ⊇ F_k in delta encoding.
///
/// `delta(i)` holds the lemmas whose *top* level is exactly i, i.e. the set
/// F_i \ F_{i+1} of the paper; the logical frame is
///   R_i = ⋂ clauses of delta(j) for j ≥ i.
/// Frame 0 is the initial-state cube and is handled by the solver layer, so
/// delta(0) stays empty here.
///
/// Subsumption is maintained on insertion: a lemma (cube c, level i)
/// subsumes (cube d, level j) iff c ⊆ d and i ≥ j (smaller cube = stronger
/// clause; higher level = holds in more frames).  So no lemma is subsumed
/// by another at its own level or above.
///
/// Every change to the frames is an install: a new lemma (add_lemma),
/// which may displace the ones it subsumes, or a push to the next level
/// (push_lemma).  The install log records each one, so a caller that
/// stamped the frames with install_count() can see exactly which lemmas
/// were installed since.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ic3/cube.hpp"

namespace pilot::ic3 {

/// One install of a lemma.  R_i gains the clause ¬cube only for
/// `from` < i ≤ `level`: a push from level j (from = j) leaves R_1 … R_j as
/// they were.  An add_lemma has from = 0.
struct LemmaInstall {
  std::size_t level = 0;
  Cube cube;
  std::size_t from = 0;
};

class Frames {
 public:
  /// Grows the sequence so that `level` is a valid index.
  void ensure_level(std::size_t level) {
    if (level >= delta_.size()) delta_.resize(level + 1);
  }

  [[nodiscard]] std::size_t top_level() const { return delta_.size() - 1; }

  [[nodiscard]] const std::vector<Cube>& delta(std::size_t level) const {
    return delta_[level];
  }

  /// Adds a lemma with top level `level`, maintaining subsumption, and
  /// logs the install.  Returns false (and does nothing) if an existing
  /// lemma already subsumes it.
  bool add_lemma(const Cube& cube, std::size_t level);

  /// Moves lemma `cube` of delta(level) to delta(level + 1), the install of
  /// a successful push, and logs it.  Same result as add_lemma(cube,
  /// level + 1), but by the invariant only delta(level) and
  /// delta(level + 1) change, so only they are scanned.  Other lemmas of
  /// delta(level) keep their order.
  void push_lemma(Cube cube, std::size_t level);

  /// Number of installs so far; a stamp for installs_since().
  [[nodiscard]] std::uint64_t install_count() const {
    return log_base_ + log_.size();
  }

  /// The installs made after install_count() returned `stamp`, oldest
  /// first.  `stamp` must not precede a forget_installs_before() cut.
  [[nodiscard]] std::span<const LemmaInstall> installs_since(
      std::uint64_t stamp) const;

  /// Drops the log entries before `stamp`, which no caller will ask for.
  void forget_installs_before(std::uint64_t stamp);

  /// True iff some lemma with top level ≥ `level` blocks `cube`
  /// (i.e. its cube is a subset of `cube`, Theorem 3.4).
  [[nodiscard]] bool subsumed_at(const Cube& cube, std::size_t level) const;

  /// Parent lemmas of Algorithm 2: lemmas p ∈ F_level \ F_{level+1}
  /// (= delta(level)) with p ⊆ cube, i.e. clause ¬p implies clause ¬cube.
  [[nodiscard]] std::vector<Cube> parents_of(const Cube& cube,
                                             std::size_t level) const;

  /// Total number of stored lemmas.
  [[nodiscard]] std::size_t total_lemmas() const;

 private:
  std::vector<std::vector<Cube>> delta_;
  std::vector<LemmaInstall> log_;  // installs log_base_, log_base_ + 1, ...
  std::uint64_t log_base_ = 0;
};

}  // namespace pilot::ic3
