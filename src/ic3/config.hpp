/// \file config.hpp
/// IC3 engine configuration.
///
/// One field, `gen_spec`, names the generalization recipe of every
/// experiment configuration of the paper (docs/ARCHITECTURE.md,
/// "Experiment configurations"): RIC3 is "down", IC3ref is "ctg", their
/// `-pl` variants put the prediction in front ("predict:down",
/// "predict:ctg"), and ABC-PDR is plain "down" too.  Every engine lifts
/// predecessors by ternary simulation (ic3/lifter.hpp).
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

struct Config {
  /// Generalization-strategy spec: "down", "ctg", "cav23",
  /// "predict[:down|ctg|cav23]" or "dynamic[:window,threshold]"
  /// (generalizer.hpp).
  std::string gen_spec = "ctg";

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

  // --- engine behaviour ---
  /// Rebuild the main solver after this many retired temporary activation
  /// variables.  The temporary clauses themselves are detached after their
  /// query; a rebuild only reclaims the retired variables and the learnt
  /// clauses that mention them.
  std::size_t rebuild_tmp_threshold = 3000;

  // --- SAT layer tuning ---
  /// Assumption-prefix trail reuse in the CDCL core: keep the solver trail
  /// between queries and re-propagate only the diverging assumption suffix.
  /// On by default; the off position exists for A/B measurement and for
  /// the verdict-equivalence tests.
  bool sat_trail_reuse = true;

  std::uint64_t seed = 0;
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
  /// the valid keys (for gen, also the strategy names).
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
