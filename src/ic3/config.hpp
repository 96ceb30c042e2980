/// \file config.hpp
/// IC3 engine configuration.
///
/// The six experiment configurations of the paper map onto these knobs
/// (docs/ARCHITECTURE.md, "Experiment configurations"): the `-pl` variants
/// set `predict_lemmas = true`, the IC3ref/RIC3 baselines differ in
/// `gen_mode`, and ABC-PDR is approximated by the kPdr profile.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pilot::obs {
class ProgressSink;  // obs/progress.hpp — live heartbeat channel
}

namespace pilot::ic3 {

class LemmaBus;  // ic3/lemma_bus.hpp — portfolio lemma-exchange endpoint

/// Inductive generalization strategy.
enum class GenMode {
  kDown,   // plain literal dropping (paper Algorithm 1) — "RIC3" baseline
  kCtg,    // ctgDown [Hassan et al., FMCAD'13] — "IC3ref" baseline
  kCav23,  // kDown with parent-lemma literal ordering [Xia et al., CAV'23]
};

/// Named engine profiles.
enum class Profile {
  kIc3,  // defaults below
  kPdr,  // Een–Mishchenko-style: no CTGs, aggressive propagation
};

struct Config {
  GenMode gen_mode = GenMode::kCtg;

  /// The paper's contribution: predict lemmas from counterexamples to
  /// propagation before dropping variables (Algorithm 2).
  bool predict_lemmas = false;

  /// Generalization-strategy registry spec ("down", "ctg", "cav23",
  /// "predict", "dynamic[:window,threshold]", or any registered name; see
  /// gen_strategy.hpp).  Empty = derive from gen_mode / predict_lemmas, so
  /// existing configurations keep their meaning.
  std::string gen_spec;

  /// `dynamic` strategy defaults (overridable per-spec via
  /// "dynamic:window,threshold"): evaluate the active strategy over its
  /// last `dynamic_window` generalizations and switch away when the
  /// windowed success rate drops below `dynamic_threshold`.
  int dynamic_window = 16;
  double dynamic_threshold = 0.4;

  /// Portfolio lemma exchange (non-owning; engine/lemma_exchange.hpp):
  /// when set, the engine publishes installed lemmas and imports peers'
  /// lemmas at propagation boundaries, validating each import with one
  /// relative-induction query.  Null = standalone run, no sharing.
  LemmaBus* lemma_bus = nullptr;

  /// Live-progress channel (non-owning; obs/progress.hpp): when set, the
  /// engine publishes frames/obligations/lemmas/SAT counters after every
  /// blocked obligation and at propagation boundaries, where the
  /// `--progress` heartbeat thread reads them. Null = no reporting.
  obs::ProgressSink* progress = nullptr;

  /// When a predicted candidate is proven, additionally shrink it with the
  /// returned unsat core (sound strengthening the paper does not do;
  /// off by default for faithfulness — ablation knob).
  bool predict_core_shrink = false;

  /// Extension ablation: allow predicted candidates with up to this many
  /// literals added to the parent lemma (the paper uses exactly 1; Eq. 6).
  int predict_max_extra_lits = 1;

  /// Clear the failure_push table at each propagation (paper line 44).
  /// Ablation: keeping stale entries trades accuracy for hit rate.
  bool clear_failure_push_on_propagate = true;

  /// On failed prediction queries, refine the diff set with the new
  /// counterexample (paper line 27).  Ablation knob.
  bool predict_refine_diff = true;

  // --- generalization tuning ---
  int ctg_max_depth = 1;  // recursion depth of ctgDown
  int ctg_max_ctgs = 3;   // CTGs blocked per down() before joining

  // --- engine behaviour ---
  /// Predecessor lifting strategy: SAT final-conflict cores (default, as in
  /// modern IC3 implementations), ternary simulation (the original PDR
  /// approach of Een–Mishchenko), or none (full model cubes).
  enum class LiftMode { kSat, kTernary, kNone };
  LiftMode lift_mode = LiftMode::kSat;
  /// Ternary-simulation backend for the ternary lifter: the bit-packed
  /// two-plane simulator (32 assignments per word, batched candidate
  /// triage + event-driven confirmation; default) or the byte-wise
  /// reference simulator, which only the lifter's differential tests
  /// select.  Both produce bit-identical lifted cubes.
  enum class LiftSim { kPacked, kByte };
  LiftSim lift_sim = LiftSim::kPacked;
  bool reenqueue_obligations = true;
  /// Rebuild the main solver (and the lifter's) after this many retired
  /// temporary activation variables.  The temporary clauses themselves are
  /// detached after their query; a rebuild only reclaims the retired
  /// variables and the learnt clauses that mention them.
  std::size_t rebuild_tmp_threshold = 3000;

  // --- SAT layer tuning ---
  /// Assumption-prefix trail reuse in the CDCL core: keep the solver trail
  /// between queries and re-propagate only the diverging assumption suffix.
  /// On by default; the off position exists for A/B measurement and for
  /// the verdict-equivalence tests.
  bool sat_trail_reuse = true;

  std::uint64_t seed = 0;

  /// Applies a named profile on top of the defaults.
  void apply_profile(Profile p) {
    if (p == Profile::kPdr) {
      gen_mode = GenMode::kDown;
      ctg_max_depth = 0;
      ctg_max_ctgs = 0;
      reenqueue_obligations = true;
      lift_mode = LiftMode::kTernary;  // PDR'11 used ternary simulation
    }
  }

  /// The strategy-registry spec this configuration resolves to: gen_spec
  /// verbatim when set, otherwise derived from the legacy knobs.
  [[nodiscard]] std::string resolved_gen_spec() const {
    if (!gen_spec.empty()) return gen_spec;
    if (predict_lemmas) return "predict";
    switch (gen_mode) {
      case GenMode::kDown: return "down";
      case GenMode::kCav23: return "cav23";
      case GenMode::kCtg: break;
    }
    return "ctg";
  }
};

/// A validated engine-settings patch: the one way a caller changes engine
/// settings on top of the Config an engine's registry name selects
/// (`--set key=value` on the CLIs, CheckOptions::patch, the "set" field
/// of results rows).  Only parse() builds one, checking every key against
/// the table in config.cpp and every value against its range, so a patch
/// that exists is valid.  Each backend applies it once, in its
/// constructor; only IC3-family engines read it.
class ConfigPatch {
 public:
  /// Parses "key=value" items; a repeated key keeps its last value.
  /// Throws std::invalid_argument naming the offending item and listing
  /// the valid keys (for gen, also the registered strategies).
  static ConfigPatch parse(const std::vector<std::string>& items);

  /// Every settable key, sorted.
  [[nodiscard]] static std::vector<std::string> keys();

  /// Sets every patched field of `cfg`.
  void apply(Config& cfg) const;

  /// Canonical "key=value" items, sorted by key: parse(items()) == *this.
  [[nodiscard]] std::vector<std::string> items() const;

  [[nodiscard]] bool empty() const { return values_.empty(); }
  bool operator==(const ConfigPatch&) const = default;

 private:
  std::map<std::string, std::string> values_;  // key -> canonical value
};

}  // namespace pilot::ic3
