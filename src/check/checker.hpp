/// \file checker.hpp
/// Unified model-checking front door: pick an engine configuration (or a
/// portfolio of them), get a verdict with a certified witness.
///
/// Engine selection is a registry `engine_spec` string resolved through
/// engine::Backend (engine/backend.hpp): any registered backend name, or
/// "portfolio[:a+b+c]" for a first-verdict-wins race.
///
/// Every definitive verdict leaves check_ts with its certificate
/// (cert/certificate.hpp), built once and, with `verify_witness`, checked
/// once by cert::check.  Callers that save, cache or gate on the
/// certificate read CheckResult instead of checking again.
///
/// The six configurations evaluated in the paper map onto specs as follows
/// (DESIGN.md §2):
///   RIC3         → "ic3-down"     RIC3-pl      → "ic3-down-pl"
///   IC3ref       → "ic3-ctg"      IC3ref-pl    → "ic3-ctg-pl"
///   IC3ref-CAV23 → "ic3-cav23"    ABC-PDR      → "pdr"
/// plus the "bmc" / "kind" baselines for cross-checking and "portfolio",
/// which races several backends and takes the first verdict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "cert/certificate.hpp"
#include "engine/portfolio.hpp"
#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pilot::check {

/// All paper configurations as registry specs, in Table 1 order.
[[nodiscard]] const std::vector<std::string>& paper_configurations();

struct CheckOptions {
  /// Engine selector by registry name.  Accepts any registered backend name
  /// plus "portfolio[:a+b+c]" (a "+"-separated backend list) and
  /// "portfolio-x[:a+b+c]" (same race with lemma exchange enabled).
  std::string engine_spec = "ic3-ctg";
  /// Generalization-strategy spec override ("down", "dynamic:16,0.4", …;
  /// see ic3/gen_strategy.hpp).  Empty = the engine's own strategy.
  /// Applies to IC3-family backends, including every one in a portfolio.
  std::string gen_spec;
  /// Ternary-simulation backend for the lifter ("--lift-sim packed|byte");
  /// unset = the config default (packed).  Applies to IC3-family backends,
  /// including every one in a portfolio.
  std::optional<ic3::Config::LiftSim> lift_sim;
  /// Ternary drop-filter in the MIC core ("--gen-ternary-filter on|off");
  /// unset = the config default (on).  Same scope as lift_sim.
  std::optional<bool> gen_ternary_filter;
  /// SAT inprocessing ("--sat-inprocess on|off"): lemma-install subsumption
  /// and boundary vivification (IC3), failed-literal probing + SCC
  /// collapsing (BMC/k-induction).  Unset = defaults (on); applies to every
  /// backend, including portfolio members.
  std::optional<bool> sat_inprocess;
  /// Batched generalization probe width ("--gen-batch N", 1 = off); unset =
  /// the config default.  Same scope as lift_sim.
  std::optional<int> gen_batch;
  /// Adaptive batch width ("--gen-batch-adaptive on|off"): size probe
  /// groups from the observed candidate failure rate instead of the fixed
  /// gen_batch.  Unset = the config default (off).  Same scope as lift_sim.
  std::optional<bool> gen_batch_adaptive;
  /// Portfolio runs: share validated lemmas between the racing IC3
  /// backends (also enabled by the "portfolio-x" spec form).
  bool share_lemmas = false;
  std::int64_t budget_ms = 0;  // 0 = unlimited
  std::uint64_t seed = 0;
  std::size_t property_index = 0;
  /// Check the verdict's certificate (witness replay, invariant or
  /// k-induction re-check) with cert::check after solving.
  bool verify_witness = true;
  /// External abort (nullable): the engine observes the token at its next
  /// deadline poll and returns kUnknown.  Must outlive the check call.
  const CancelToken* cancel = nullptr;
  /// Live-progress heartbeat period in seconds ("--progress[=secs]");
  /// <= 0 disables it.  Each backend gets its own named channel, so a
  /// portfolio run prints one line per racer per tick.
  double progress_interval = 0.0;
  /// Extra IC3 knobs forwarded verbatim (ablations).  Single-engine specs
  /// only: portfolio races keep each backend's own configuration (use
  /// engine::PortfolioOptions directly to override a whole race).
  std::optional<ic3::Config> ic3_overrides;
};

struct CheckResult {
  ic3::Verdict verdict = ic3::Verdict::kUnknown;
  double seconds = 0.0;
  ic3::Ic3Stats stats;           // meaningful for IC3 engines
  std::size_t frames = 0;
  bool witness_checked = false;  // the certificate passed cert::check
  std::string witness_error;     // non-empty if certification failed
  /// The definitive verdict's certificate (nullopt for UNKNOWN, or when the
  /// engine returned no payload to build one from — see witness_error).
  std::optional<cert::Certificate> certificate;
  std::optional<ic3::Trace> trace;                  // UNSAFE evidence
  std::optional<ic3::InductiveInvariant> invariant; // SAFE evidence
  /// k-induction SAFE proofs: the closing bound (< 0 otherwise) and whether
  /// simple-path strengthening was on — the payload cert::from_kinduction
  /// turns into a certificate.
  int kind_k = -1;
  bool kind_simple_path = true;
  /// Portfolio runs only: the winning backend and one timing row per raced
  /// backend (spec order).
  std::string winner;
  std::vector<engine::BackendTiming> backend_timings;
  /// Portfolio runs with lemma exchange: hub-level traffic counters.
  engine::LemmaExchangeStats exchange;
};

/// Checks property `property_index` of `aig` with the chosen engine.
CheckResult check_aig(const aig::Aig& aig, const CheckOptions& options);

/// Same, over an already-built transition system.
CheckResult check_ts(const ts::TransitionSystem& ts,
                     const CheckOptions& options);

}  // namespace pilot::check
