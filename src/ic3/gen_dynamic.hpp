/// \file gen_dynamic.hpp
/// The "dynamic" meta-strategy: mid-run switching between generalization
/// strategies driven by observed success rates — the dynamic-adjustment
/// idea of "Extended CTG Generalization and Dynamic Adjustment of
/// Generalization Strategies in IC3" (SuYC25).
///
/// The driver (Generalizer) records every generalization outcome into a
/// per-strategy sliding window in Ic3Stats; at each propagation boundary
/// this strategy evaluates the *active* sub-strategy's windowed success
/// rate and, once it has a full window of fresh samples, switches away
/// when the rate falls below the threshold.  Switch targets prefer
/// never-tried candidates (exploration, in rotation order), then the
/// best windowed success rate among the rest.
///
/// Spec: "dynamic[:window[,threshold]]" — e.g. "dynamic:8,0.5" evaluates
/// over the last 8 generalizations against a 50% success bar.  The
/// defaults are a window of 16 and a threshold of 0.4.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ic3/gen_strategy.hpp"

namespace pilot::ic3 {

/// Parsed ":args" of a dynamic spec; unset fields take the defaults.
struct DynamicArgs {
  std::optional<std::size_t> window;
  std::optional<double> threshold;
};

/// Parses "window[,threshold]" (either part may be omitted: "", "8",
/// "8,0.5").  Throws std::invalid_argument on malformed numbers, window
/// outside [1, GenStrategyStats::kGenWindowCapacity], or threshold
/// outside [0, 1].
[[nodiscard]] DynamicArgs parse_dynamic_args(const std::string& args);

class DynamicStrategy final : public GenStrategy {
 public:
  /// Builds the candidate pool ("predict", "ctg", "cav23", "down") over
  /// `ctx` and applies `args` on top of the defaults.
  DynamicStrategy(const GenContext& ctx, const std::string& args);

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] const std::string& active_name() const override;

  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline,
                  const AddLemmaFn& add_lemma) override;

  [[nodiscard]] bool wants_push_failures() const override { return true; }
  void on_push_failure(const Cube& lemma, std::size_t level,
                       Cube ctp) override;
  void on_propagate() override;

  // --- policy introspection (unit tests drive these directly) ---

  /// Candidate names in rotation order.
  [[nodiscard]] std::vector<std::string> candidate_names() const;
  /// Runs one policy evaluation against the Ic3Stats windows; returns true
  /// when the active strategy changed (statistics updated accordingly).
  bool evaluate_switch();
  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  [[nodiscard]] std::size_t pick_successor() const;

  const GenContext ctx_;
  std::vector<std::unique_ptr<GenStrategy>> candidates_;
  std::size_t active_ = 0;
  std::size_t window_;
  double threshold_;
  /// Active strategy's lifetime attempt count at the moment it became
  /// active; the policy waits for `window_` *fresh* samples before judging
  /// so a stale window cannot trigger an immediate re-switch.
  std::uint64_t attempts_at_activation_ = 0;
};

}  // namespace pilot::ic3
