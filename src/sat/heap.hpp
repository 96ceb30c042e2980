/// \file heap.hpp
/// Indexed binary max-heap keyed by variable activity.
///
/// Supports increase-key by tracking each element's position, which the
/// VSIDS decision heuristic needs when it bumps activities (a rescale keeps
/// the order, so it needs none).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace pilot::sat {

/// Max-heap over variables ordered by an external activity array.
class ActivityHeap {
 public:
  explicit ActivityHeap(const std::vector<double>& activity)
      : activity_(activity) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Element at heap slot `i` (for randomized peeking; no order guarantee).
  [[nodiscard]] Var at(std::size_t i) const { return heap_[i]; }

  [[nodiscard]] bool contains(Var v) const {
    return v < static_cast<Var>(position_.size()) && position_[v] >= 0;
  }

  /// Ensures the position index covers variables up to `v`.
  void reserve_var(Var v) {
    if (v >= static_cast<Var>(position_.size())) {
      position_.resize(v + 1, -1);
    }
  }

  void insert(Var v) {
    reserve_var(v);
    if (contains(v)) return;
    position_[v] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(v);
    sift_up(position_[v]);
  }

  /// Re-establishes heap order after activity_[v] increased.
  void increased(Var v) {
    if (contains(v)) sift_up(position_[v]);
  }

  /// Removes and returns the variable of maximal activity.
  Var pop_max() {
    assert(!heap_.empty());
    const Var top = heap_[0];
    heap_[0] = heap_.back();
    position_[heap_[0]] = 0;
    heap_.pop_back();
    position_[top] = -1;
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  void clear() {
    for (Var v : heap_) position_[v] = -1;
    heap_.clear();
  }

  /// Rebuilds the heap from an explicit variable list.
  void rebuild(const std::vector<Var>& vars) {
    clear();
    for (Var v : vars) insert(v);
  }

 private:
  [[nodiscard]] bool before(Var a, Var b) const {
    return activity_[a] > activity_[b];
  }

  void sift_up(std::int32_t i) {
    const Var v = heap_[i];
    while (i > 0) {
      const std::int32_t parent = (i - 1) >> 1;
      if (!before(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      position_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = v;
    position_[v] = i;
  }

  void sift_down(std::int32_t i) {
    const Var v = heap_[i];
    const auto n = static_cast<std::int32_t>(heap_.size());
    for (;;) {
      std::int32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], v)) break;
      heap_[i] = heap_[child];
      position_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = v;
    position_[v] = i;
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<std::int32_t> position_;
};

}  // namespace pilot::sat
