/// \file generalizer.hpp
/// The generalization driver: a thin facade the engine talks to, with the
/// actual policy delegated to a pluggable GenStrategy (gen_strategy.hpp)
/// resolved from Config::gen_spec.
///
/// The driver owns the cross-strategy bookkeeping so strategies stay pure
/// policy: it times every call into the `generalize` phase, counts N_g,
/// and records each outcome (success / queries spent / literals dropped)
/// into the per-strategy sliding windows that the "dynamic" meta-strategy
/// and `pilot --stats` read.
///
/// This is exactly the component whose cost the paper's prediction
/// mechanism avoids: each literal dropped costs one relative-induction SAT
/// query, so |cube| queries per generalization in the worst case.
#pragma once

#include <memory>
#include <string>

#include "ic3/gen_strategy.hpp"

namespace pilot::ic3 {

class Generalizer {
 public:
  /// Resolves Config::gen_spec against the strategy registry; throws
  /// std::invalid_argument for unknown names or malformed args.
  Generalizer(const ts::TransitionSystem& ts, SolverManager& solvers,
              Frames& frames, const Config& cfg, Ic3Stats& stats);

  /// Generalizes `cube` (already relative-inductive at `level`-1 and
  /// disjoint from I) into a smaller cube still blocked at `level`.
  /// `core` is the unsat-core-shrunk cube from the blocking query.
  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline, const AddLemmaFn& add_lemma);

  /// True when the active strategy consumes counterexamples to
  /// propagation — the engine extracts the successor model only then.
  [[nodiscard]] bool wants_push_failures() const {
    return strategy_->wants_push_failures();
  }

  /// Forwards a failed push (lemma, level, CTP successor state).
  void on_push_failure(const Cube& lemma, std::size_t level, Cube ctp) {
    strategy_->on_push_failure(lemma, level, std::move(ctp));
  }

  /// Propagation-boundary hook: table clears, dynamic strategy switching.
  void on_propagate() { strategy_->on_propagate(); }

  /// Registry name of the configured strategy ("down", "dynamic", …).
  [[nodiscard]] const std::string& strategy_name() const {
    return strategy_->name();
  }

  /// The strategy currently doing the work (differs from strategy_name()
  /// only for "dynamic").
  [[nodiscard]] const std::string& active_strategy() const {
    return strategy_->active_name();
  }

 private:
  Ic3Stats& stats_;
  std::unique_ptr<GenStrategy> strategy_;
};

}  // namespace pilot::ic3
