/// \file cube.hpp
/// Cubes over state variables: the currency of IC3.
///
/// A Cube is a conjunction of literals kept sorted by literal code, which
/// makes subset tests (clause subsumption, Theorem 3.4), complement-aware
/// diff sets (Definition 3.1 of the paper), and hashing linear-time.
/// The negation of a cube is the corresponding lemma (a clause).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace pilot::ic3 {

using sat::Lit;
using sat::Var;

/// Sorted, duplicate-free conjunction of literals.
class Cube {
 public:
  Cube() = default;

  /// Builds a cube from arbitrary literals (sorts, deduplicates).
  static Cube from_lits(std::vector<Lit> lits);

  /// Builds from literals already sorted and unique (cheap, asserts order).
  static Cube from_sorted(std::vector<Lit> lits);

  [[nodiscard]] bool empty() const { return lits_.empty(); }
  [[nodiscard]] std::size_t size() const { return lits_.size(); }
  [[nodiscard]] const std::vector<Lit>& lits() const { return lits_; }
  [[nodiscard]] Lit operator[](std::size_t i) const { return lits_[i]; }
  [[nodiscard]] auto begin() const { return lits_.begin(); }
  [[nodiscard]] auto end() const { return lits_.end(); }

  /// Membership test (binary search).
  [[nodiscard]] bool contains(Lit l) const;

  /// Subset test: every literal of *this occurs in `other`.
  /// By Theorem 3.4 this is equivalent to other ⇒ *this (as cubes), and to
  /// clause(¬*this) subsuming clause(¬other).
  [[nodiscard]] bool subset_of(const Cube& other) const;

  /// Definition 3.1: diff(*this, b) = { l ∈ *this | ¬l ∈ b }.
  [[nodiscard]] Cube diff(const Cube& b) const;

  /// Literal-set intersection.
  [[nodiscard]] Cube intersect(const Cube& other) const;

  /// Copy without literal `l` (no-op if absent).
  [[nodiscard]] Cube without(Lit l) const;

  /// Copy with literal `l` inserted (no-op if present).  The result must not
  /// contain complementary literals; callers guarantee this.
  [[nodiscard]] Cube with_lit(Lit l) const;

  /// The lemma: clause ¬cube as a literal vector.
  [[nodiscard]] std::vector<Lit> negated_lits() const;

  /// FNV-1a over literal codes; stable across runs.
  [[nodiscard]] std::size_t hash() const;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const Cube& other) const { return lits_ == other.lits_; }

 private:
  std::vector<Lit> lits_;
};

struct CubeHash {
  std::size_t operator()(const Cube& c) const { return c.hash(); }
};

/// Key of the CTP table of failed pushes (Frames): (lemma cube, level).
struct CubeLevelKey {
  Cube cube;
  std::size_t level = 0;
  bool operator==(const CubeLevelKey& o) const {
    return level == o.level && cube == o.cube;
  }
};

struct CubeLevelKeyHash {
  std::size_t operator()(const CubeLevelKey& k) const {
    return k.cube.hash() * 1000003u ^ k.level;
  }
};

}  // namespace pilot::ic3
