/// \file generalizer.hpp
/// Inductive generalization: the five built-in recipes, selected by
/// Config::gen_spec ("name" or "name:args"):
///  * "down"    — plain literal dropping (paper Algorithm 1, "RIC3")
///  * "ctg"     — ctgDown [Hassan, Bradley, Somenzi — FMCAD'13, "IC3ref"]
///  * "cav23"   — down with the parent-lemma literal ordering of
///                [Xia et al., CAV'23]
///  * "predict" — the DAC'24 prediction mechanism (Algorithm 2) in front of
///                a drop loop: "predict:down" (RIC3-pl), "predict:ctg"
///                (IC3ref-pl; bare "predict") or "predict:cav23"
///  * "dynamic" — the dynamic adjustment of "Extended CTG Generalization
///                and Dynamic Adjustment of Generalization Strategies in
///                IC3" (SuYC25): rotates among predict, ctg, cav23 and down,
///                switching at propagation boundaries when the active
///                recipe's windowed success rate falls below a threshold.
///                "dynamic:8,0.5" judges over the last 8 generalizations
///                against a 50% bar; the defaults are 16 and 0.4.
///
/// The SAT mechanics stay in SolverManager and the bookkeeping in Frames.
/// The Generalizer times every call into the `generalize` phase, counts
/// N_g, and records each outcome into the per-strategy sliding windows in
/// Ic3Stats that the dynamic policy and `pilot --stats` read.  The engine
/// (engine.cpp) has no recipe-specific branching: it calls generalize(),
/// hands failed pushes to on_push_failure() when wants_push_failures(), and
/// calls on_propagate() at every propagation boundary.
///
/// Each literal dropped costs one relative-induction SAT query, so |cube|
/// queries per generalization in the worst case: the cost the paper's
/// prediction avoids.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/predictor.hpp"
#include "ic3/solver_manager.hpp"
#include "ic3/stats.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

/// Callback installing a lemma into frames AND solver (owned by the
/// engine; ctgDown uses it to block CTGs mid-generalization).
using AddLemmaFn = std::function<void(const Cube&, std::size_t)>;

/// The five strategy names ("cav23", "ctg", "down", "dynamic", "predict").
[[nodiscard]] const std::vector<std::string>& gen_strategy_names();

/// Checks that `spec` is a well-formed gen spec.  Throws
/// std::invalid_argument naming the offending token (and, for a bad name,
/// listing the strategies) — the one error message shared by every CLI.
void validate_gen_spec(const std::string& spec);

class Generalizer {
 public:
  /// Parses Config::gen_spec; throws std::invalid_argument like
  /// validate_gen_spec.
  Generalizer(const ts::TransitionSystem& ts, SolverManager& solvers,
              Frames& frames, const Config& cfg, Ic3Stats& stats);

  /// Generalizes `cube` (already relative-inductive at `level`-1 and
  /// disjoint from I) into a smaller cube still blocked at `level`.
  /// `core` is the unsat-core-shrunk cube from the blocking query, where
  /// the drop loops start; prediction works from the full `cube` (its
  /// parents are what matter).
  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline, const AddLemmaFn& add_lemma);

  /// True when the spec predicts and so consumes counterexamples to
  /// propagation — the engine extracts the successor model only then.
  [[nodiscard]] bool wants_push_failures() const {
    return predictor_.has_value();
  }

  /// A push of `lemma` from `level` failed; `ctp` is the witnessing
  /// successor state (over current-step variables).  The predictor records
  /// it whichever recipe is active, so a switch to predict starts with
  /// fresh parents.
  void on_push_failure(const Cube& lemma, std::size_t level, Cube ctp);

  /// Propagation boundary: the predictor clears its failure table (paper
  /// line 44), then the dynamic policy runs evaluate_switch().
  void on_propagate();

  /// The Ic3Stats::gen_strategies name of the active recipe: "predict" for
  /// any predict plan, else its drop loop's name.
  [[nodiscard]] const std::string& active_name() const {
    return plan().name;
  }

  /// One evaluation of the dynamic policy against the Ic3Stats windows;
  /// returns true when the active recipe changed (statistics updated
  /// accordingly).  Always false for a fixed spec.
  bool evaluate_switch();

 private:
  enum class DropMode {
    kDown,   // plain literal dropping (paper Algorithm 1) — "RIC3" baseline
    kCtg,    // ctgDown [Hassan et al., FMCAD'13] — "IC3ref" baseline
    kCav23,  // kDown with parent-lemma literal ordering [Xia et al., CAV'23]
  };

  /// One recipe: a drop loop, behind prediction when `predict` is set.
  struct Plan {
    std::string name;
    DropMode drop;
    bool predict;
  };

  /// A parsed gen spec: one plan, or dynamic's rotation — predict
  /// (= predict:ctg), ctg, cav23, down — with its window and threshold.
  struct Spec {
    std::vector<Plan> plans;
    std::size_t window;
    double threshold;
  };

  /// The one gen-spec parser; throws std::invalid_argument.
  static Spec parse(const std::string& spec);
  friend void validate_gen_spec(const std::string& spec);

  [[nodiscard]] const Plan& plan() const { return spec_.plans[active_]; }

  [[nodiscard]] std::vector<Lit> order_literals(const Cube& cube,
                                                std::size_t level) const;
  Cube mic(Cube cube, std::size_t level, int depth, const Deadline& deadline,
           const AddLemmaFn& add_lemma);
  bool ctg_down(Cube& cand, const std::vector<Lit>& kept, std::size_t level,
                int depth, const Deadline& deadline,
                const AddLemmaFn& add_lemma);
  [[nodiscard]] std::size_t pick_successor() const;

  const ts::TransitionSystem& ts_;
  SolverManager& solvers_;
  Frames& frames_;
  const Config& cfg_;
  Ic3Stats& stats_;
  const Spec spec_;
  std::size_t active_ = 0;  // index into spec_.plans
  /// Active plan's lifetime attempt count at the moment it became active;
  /// the policy waits for a window of *fresh* samples before judging so a
  /// stale window cannot trigger an immediate re-switch.
  std::uint64_t attempts_at_activation_ = 0;
  /// Present when any plan predicts.
  std::optional<Predictor> predictor_;
};

}  // namespace pilot::ic3
