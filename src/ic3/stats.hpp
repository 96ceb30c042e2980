/// \file stats.hpp
/// IC3 run statistics, including the success-rate counters defined in §4.3
/// of the paper:
///   N_g  — total generalizations            (num_generalizations)
///   N_p  — prediction SAT queries           (num_prediction_queries)
///   N_sp — successful lemma predictions     (num_successful_predictions)
///   N_fp — generalizations that found a     (num_found_failed_parents)
///          failed-pushed parent lemma
/// and the derived rates SR_lp = N_sp/N_p, SR_fp = N_fp/N_g,
/// SR_adv = N_sp/N_g.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "sat/solver.hpp"

namespace pilot::ic3 {

/// One generalization as the dynamic-strategy policy sees it.
struct GenOutcome {
  bool success = false;        // dropped ≥ 1 literal (or predicted a lemma)
  std::uint32_t queries = 0;   // SAT queries the attempt spent
  std::uint32_t dropped = 0;   // literals removed from the input cube
};

/// Per-strategy generalization counters plus a sliding window of recent
/// outcomes — the observable the SuYC25 switching policy reads.  Lifetime
/// totals feed `pilot --stats` and the ResultsDb rows; the window ring
/// holds the last kGenWindowCapacity outcomes.
struct GenStrategyStats {
  std::string name;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t queries = 0;
  std::uint64_t dropped_lits = 0;
  /// Times the dynamic policy switched *away* from this strategy.
  std::uint64_t switches = 0;

  static constexpr std::size_t kGenWindowCapacity = 64;
  std::vector<GenOutcome> window;  // ring buffer, newest at window_next-1
  std::size_t window_next = 0;

  void record(bool success_, std::uint64_t queries_, std::uint64_t dropped_);

  [[nodiscard]] std::size_t window_size() const { return window.size(); }
  /// Success rate / mean queries over the newest min(n, stored) outcomes.
  [[nodiscard]] double window_success_rate(std::size_t n) const;
  [[nodiscard]] double window_avg_queries(std::size_t n) const;

  [[nodiscard]] double success_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(successes) /
                               static_cast<double>(attempts);
  }
  [[nodiscard]] double avg_queries() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(queries) /
                               static_cast<double>(attempts);
  }
  [[nodiscard]] double avg_dropped() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(dropped_lits) /
                               static_cast<double>(attempts);
  }
};

struct Ic3Stats {
  // --- paper §4.3 counters ---
  std::uint64_t num_generalizations = 0;        // N_g
  std::uint64_t num_prediction_queries = 0;     // N_p
  std::uint64_t num_successful_predictions = 0; // N_sp
  std::uint64_t num_found_failed_parents = 0;   // N_fp

  // --- engine counters ---
  std::uint64_t num_obligations = 0;
  std::uint64_t num_lemmas = 0;
  std::uint64_t num_blocked_cubes = 0;
  std::uint64_t num_ctis = 0;
  std::uint64_t num_mic_queries = 0;       // SAT queries spent dropping vars
  std::uint64_t num_mic_drops = 0;         // literals successfully dropped
  std::uint64_t num_push_queries = 0;     // propagation push solves issued
  std::uint64_t num_push_successes = 0;
  /// Propagation pushes whose cached CTP was checked against the lemmas
  /// installed since it was found, and those it still refuted, so the
  /// solve was skipped (not counted in num_push_queries).
  std::uint64_t num_push_ctp_revalidations = 0;
  std::uint64_t num_push_skipped_by_ctp = 0;
  std::uint64_t num_ctg_blocked = 0;
  std::uint64_t num_solver_rebuilds = 0;
  std::uint64_t num_subsumed_lemmas = 0;
  /// Variables whose saved phase/activity were carried into a fresh solver
  /// by SolverManager::rebuild.
  std::uint64_t num_rebuild_carried_phases = 0;
  /// Frame lemmas skipped by the cross-level dedup/subsume sweep in
  /// SolverManager::rebuild (defensive: Frames maintains the invariant, so
  /// nonzero values flag an upstream bug — and the rebuild stays sound).
  std::uint64_t num_rebuild_subsumed = 0;

  /// Node-words (32 packed lanes each) evaluated by the ternary lifter's
  /// packed simulation (Config::LiftMode::kTernary).
  std::uint64_t num_packed_sim_words = 0;

  // --- generalization strategies (gen_strategy.hpp) ---
  /// One entry per strategy that performed ≥ 1 generalization this run,
  /// in first-use order.
  std::vector<GenStrategyStats> gen_strategies;
  /// Mid-run strategy switches by the "dynamic" meta-strategy (SuYC25).
  std::uint64_t num_strategy_switches = 0;

  /// Find-or-create the per-strategy entry.
  GenStrategyStats& gen_strategy(const std::string& name);
  [[nodiscard]] const GenStrategyStats* find_gen_strategy(
      const std::string& name) const;
  /// Folds one generalization outcome into `name`'s totals and window.
  void record_gen_outcome(const std::string& name, bool success,
                          std::uint64_t queries, std::uint64_t dropped);

  // --- portfolio lemma exchange (engine/lemma_exchange.hpp) ---
  std::uint64_t num_exchange_published = 0;  // lemmas offered to peers
  std::uint64_t num_exchange_imported = 0;   // peer lemmas validated+installed
  std::uint64_t num_exchange_rejected = 0;   // failed the validation query
  std::uint64_t num_exchange_skipped = 0;    // already subsumed locally

  // --- verdict certification (cert/certificate.hpp) ---
  /// Certificates checked against this result (portfolio winner gating,
  /// --certify, pilot-bench --certify).
  std::uint64_t num_cert_checks = 0;
  /// Certificate checks that failed — each one quarantines a backend's
  /// verdict in the portfolio instead of accepting it.
  std::uint64_t num_cert_failures = 0;

  // --- SAT layer (absorbed from sat::SolverStats at the end of a run) ---
  std::uint64_t sat_solve_calls = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  /// solve() calls that reused ≥ 1 assumption decision level.
  std::uint64_t sat_trail_reuse_hits = 0;
  /// Trail literals whose re-propagation trail reuse skipped.
  std::uint64_t sat_saved_propagations = 0;
  /// Implications served by the implicit binary watch lists.
  std::uint64_t sat_binary_propagations = 0;
  /// Learnt clauses with LBD ≤ 2 (glue).
  std::uint64_t sat_glue_learnts = 0;
  std::uint64_t sat_db_reductions = 0;
  /// Copies the SAT-layer aggregate into the mirror counters above.
  /// Idempotent (each field is assigned, not accumulated), so the engine
  /// calls it at every progress/trace boundary as well as the check()
  /// epilogue — live heartbeats and mid-run traces see real SAT counters.
  void absorb_sat(const sat::SolverStats& s) {
    sat_solve_calls = s.solve_calls;
    sat_propagations = s.propagations;
    sat_conflicts = s.conflicts;
    sat_decisions = s.decisions;
    sat_trail_reuse_hits = s.trail_reuse_hits;
    sat_saved_propagations = s.saved_propagations;
    sat_binary_propagations = s.binary_propagations;
    sat_glue_learnts = s.glue_learnts;
    sat_db_reductions = s.db_reductions;
  }

  // --- timing (seconds) ---
  double time_total = 0.0;

  /// Per-phase wall-time breakdown (obs::PhaseScope accumulates into this);
  /// rendered by `pilot --stats` and persisted into ResultsDb rows.
  obs::PhaseProfile phases;

  std::size_t max_frame = 0;

  // --- read only by perfbench/harness.cpp; always 0; delete with the next
  // --- benchmark change ---
  std::uint64_t num_filter_checks = 0;
  std::uint64_t num_filter_solves_saved = 0;
  std::uint64_t num_batched_drop_solves = 0;
  std::uint64_t num_batched_drop_answers = 0;
  std::uint64_t sat_probe_failed_literals = 0;
  std::uint64_t sat_scc_merged_vars = 0;

  // --- derived success rates (paper Table 2) ---
  [[nodiscard]] double sr_lp() const {
    return num_prediction_queries == 0
               ? 0.0
               : static_cast<double>(num_successful_predictions) /
                     static_cast<double>(num_prediction_queries);
  }
  [[nodiscard]] double sr_fp() const {
    return num_generalizations == 0
               ? 0.0
               : static_cast<double>(num_found_failed_parents) /
                     static_cast<double>(num_generalizations);
  }
  [[nodiscard]] double sr_adv() const {
    return num_generalizations == 0
               ? 0.0
               : static_cast<double>(num_successful_predictions) /
                     static_cast<double>(num_generalizations);
  }

  [[nodiscard]] std::string summary() const;
};

}  // namespace pilot::ic3
