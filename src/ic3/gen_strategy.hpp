/// \file gen_strategy.hpp
/// Pluggable inductive-generalization strategies behind a string-keyed
/// registry, mirroring engine::Backend one layer down.
///
/// A GenStrategy owns the *policy* of generalization — candidate literal
/// ordering, the drop loop, and what to do with counterexamples — while the
/// SAT mechanics stay in SolverManager and the bookkeeping in Frames.  The
/// built-in strategies are:
///  * "down"    — plain literal dropping (paper Algorithm 1, "RIC3")
///  * "ctg"     — ctgDown [Hassan, Bradley, Somenzi — FMCAD'13, "IC3ref"]
///  * "cav23"   — down with the parent-lemma literal ordering of
///                [Xia et al., CAV'23]
///  * "predict" — the DAC'24 prediction mechanism (Algorithm 2) in front of
///                a fallback drop loop: "predict:down" (RIC3-pl),
///                "predict:ctg" (IC3ref-pl; bare "predict") or
///                "predict:cav23"
///  * "dynamic" — the SuYC25 meta-strategy (gen_dynamic.hpp): observes the
///                others' success rates in sliding windows and switches at
///                propagation boundaries
///
/// Strategies are selected by Config::gen_spec ("name" or "name:args",
/// e.g. "predict:down", "dynamic:16,0.4"), the one strategy field of an
/// engine configuration.  `register_gen_strategy`
/// plugs in new strategies without touching the engine; the engine itself
/// (engine.cpp) contains no strategy-specific branching — it drives the
/// active strategy through the Generalizer facade and its hooks.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/solver_manager.hpp"
#include "ic3/stats.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

/// Callback installing a lemma into frames AND solver (owned by the
/// engine; ctgDown uses it to block CTGs mid-generalization).
using AddLemmaFn = std::function<void(const Cube&, std::size_t)>;

/// Everything a strategy may touch, bundled so factories stay one-argument.
/// All references outlive the strategy (they live in ic3::Engine).
struct GenContext {
  const ts::TransitionSystem& ts;
  SolverManager& solvers;
  Frames& frames;
  const Config& cfg;
  Ic3Stats& stats;
};

class GenStrategy {
 public:
  virtual ~GenStrategy() = default;

  /// Registry name of this strategy ("down", "ctg", "dynamic", …).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// The strategy currently doing the work: equal to name() for the fixed
  /// strategies; "dynamic" reports its active sub-strategy so per-strategy
  /// statistics attribute each generalization to whoever performed it.
  [[nodiscard]] virtual const std::string& active_name() const {
    return name();
  }

  /// Generalizes `cube` (already relative-inductive at `level`-1 and
  /// disjoint from I) into a smaller cube still blocked at `level`.
  /// `core` is the unsat-core-shrunk version of `cube` from the blocking
  /// query — the natural starting point for drop loops; prediction-based
  /// strategies work from the full `cube` (its parents are what matter).
  virtual Cube generalize(const Cube& cube, const Cube& core,
                          std::size_t level, const Deadline& deadline,
                          const AddLemmaFn& add_lemma) = 0;

  /// True when the strategy consumes counterexamples to propagation; the
  /// engine skips the (cheap but nonzero) successor-model extraction for
  /// strategies that would discard it.
  [[nodiscard]] virtual bool wants_push_failures() const { return false; }

  /// A push of `lemma` from `level` failed; `ctp` is the witnessing
  /// successor state (over current-step variables).
  virtual void on_push_failure(const Cube& lemma, std::size_t level,
                               Cube ctp) {
    (void)lemma;
    (void)level;
    (void)ctp;
  }

  /// Called once at every propagation boundary, before the pushes.  The
  /// predictor clears its failure table here (paper line 44); "dynamic"
  /// additionally evaluates its switching policy.
  virtual void on_propagate() {}
};

using GenStrategyFactory = std::function<std::unique_ptr<GenStrategy>(
    const GenContext& ctx, const std::string& args)>;

/// Validates the ":args" suffix of a spec without building a strategy;
/// throws std::invalid_argument on malformed args.
using GenArgsValidator = std::function<void(const std::string& args)>;

/// Registers a strategy under `name` (no ':' allowed).  Throws
/// std::invalid_argument on a duplicate name.  Thread-safe.
void register_gen_strategy(const std::string& name, GenStrategyFactory factory,
                           GenArgsValidator validate_args = nullptr);

/// True when `name` (a bare name, not a spec) is registered.
[[nodiscard]] bool gen_strategy_registered(const std::string& name);

/// All registered strategy names, sorted.
[[nodiscard]] std::vector<std::string> gen_strategy_names();

/// Splits "name[:args]" into its parts (args empty when there is no ':').
struct GenSpec {
  std::string name;
  std::string args;
};
[[nodiscard]] GenSpec split_gen_spec(const std::string& spec);

/// Checks that `spec` names a registered strategy with well-formed args.
/// Throws std::invalid_argument naming the offending token and listing the
/// registered strategies — the one error message shared by every CLI.
void validate_gen_spec(const std::string& spec);

/// Instantiates the strategy for `spec` ("name" or "name:args").  Throws
/// std::invalid_argument for unknown names or malformed args.
[[nodiscard]] std::unique_ptr<GenStrategy> make_gen_strategy(
    const std::string& spec, const GenContext& ctx);

}  // namespace pilot::ic3
