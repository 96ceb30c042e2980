/// \file stats.hpp
/// IC3 run statistics.  Every counter is one row of PILOT_IC3_COUNTERS (or,
/// for the SAT layer, of PILOT_SAT_COUNTERS in sat/solver.hpp); the row
/// declares the field, and the serializer, loader and `pilot --stats` line
/// all iterate the tables, so adding a counter means adding one row.
///
/// The success-rate counters of §4.3 of the paper are rows too:
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

/// Per-strategy generalization counters plus a sliding window of recent
/// outcomes — the observable the SuYC25 switching policy reads.  Lifetime
/// totals feed `pilot --stats` and the ResultsDb rows; the window ring
/// holds whether each of the last kGenWindowCapacity generalizations
/// succeeded (dropped ≥ 1 literal or predicted a lemma).
struct GenStrategyStats {
  std::string name;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t queries = 0;
  std::uint64_t dropped_lits = 0;
  /// Times the dynamic policy switched *away* from this strategy.
  std::uint64_t switches = 0;

  static constexpr std::size_t kGenWindowCapacity = 64;
  std::vector<bool> window;  // ring buffer, newest at window_next-1
  std::size_t window_next = 0;

  void record(bool success_, std::uint64_t queries_, std::uint64_t dropped_);

  [[nodiscard]] std::size_t window_size() const { return window.size(); }
  /// Success rate over the newest min(n, stored) outcomes.
  [[nodiscard]] double window_success_rate(std::size_t n) const;

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

/// The IC3 counters, one row `X(group, name)` each.  A row declares
/// `std::uint64_t num_<name>`, whose JSON key is "<name>"; `pilot --stats`
/// prints it as `<name>=<value>` under its group, so keep a group's rows
/// together.  Comments on rows must be /* */: a // comment would swallow
/// the rows after it.
#define PILOT_IC3_COUNTERS(X)                                                 \
  X(core, lemmas)                                                             \
  X(core, obligations)                                                        \
  X(core, ctis)                     /* counterexamples to induction */        \
  X(core, generalizations)          /* N_g */                                 \
  X(core, mic_queries)              /* SAT queries spent dropping literals */ \
  X(core, mic_drops)                /* literals successfully dropped */       \
  X(core, ctg_blocked)              /* CTGs blocked by ctgDown */             \
  X(push, push_queries)             /* propagation push solves issued */      \
  X(push, push_successes)                                                     \
  X(push, push_skipped_by_ctp)      /* CTP still held: solve skipped */       \
  X(push, push_ctp_revalidations)   /* cached CTPs re-checked */              \
  X(predict, prediction_queries)    /* N_p */                                 \
  X(predict, successful_predictions) /* N_sp */                               \
  X(predict, found_failed_parents)  /* N_fp */                                \
  X(lift, packed_sim_words)         /* 32-lane words the lifter simulated */  \
  X(dynamic, strategy_switches)     /* SuYC25 mid-run switches */             \
  X(exchange, exchange_published)   /* lemmas offered to peers */             \
  X(exchange, exchange_imported)    /* peer lemmas validated, installed */    \
  X(exchange, exchange_rejected)    /* failed the validation query */         \
  X(exchange, exchange_skipped)     /* already subsumed locally */            \
  X(cert, cert_checks)              /* certificates checked */                \
  X(cert, cert_failures)            /* each quarantines a verdict */          \
  X(rebuild, solver_rebuilds)

struct Ic3Stats {
#define PILOT_IC3_FIELD(group, name) std::uint64_t num_##name = 0;
  PILOT_IC3_COUNTERS(PILOT_IC3_FIELD)
#undef PILOT_IC3_FIELD

  /// SAT-layer mirrors `sat_<name>` of sat::SolverStats.
#define PILOT_SAT_MIRROR(name) std::uint64_t sat_##name = 0;
  PILOT_SAT_COUNTERS(PILOT_SAT_MIRROR)
#undef PILOT_SAT_MIRROR

  /// Copies the SAT-layer aggregate into the mirror counters above.
  /// Idempotent (each field is assigned, not accumulated), so the engine
  /// calls it at every progress/trace boundary as well as the check()
  /// epilogue — live heartbeats and mid-run traces see real SAT counters.
  void absorb_sat(const sat::SolverStats& s) {
#define PILOT_SAT_ABSORB(name) sat_##name = s.name;
    PILOT_SAT_COUNTERS(PILOT_SAT_ABSORB)
#undef PILOT_SAT_ABSORB
  }

  // --- generalization strategies (generalizer.hpp) ---
  /// One entry per strategy that performed ≥ 1 generalization this run,
  /// in first-use order.
  std::vector<GenStrategyStats> gen_strategies;

  /// Find-or-create the per-strategy entry.
  GenStrategyStats& gen_strategy(const std::string& name);
  [[nodiscard]] const GenStrategyStats* find_gen_strategy(
      const std::string& name) const;
  /// Folds one generalization outcome into `name`'s totals and window.
  void record_gen_outcome(const std::string& name, bool success,
                          std::uint64_t queries, std::uint64_t dropped);

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

  /// `frames=<max_frame>`, then ` | <group>: <key>=<value> ...` for each
  /// group with a nonzero counter (the SR rates follow the predict group),
  /// then one ` | gen[<strategy>]: ...` row per strategy.
  [[nodiscard]] std::string summary() const;
};

/// Calls fn(group, key, field) for every counter row, in table order: the
/// PILOT_IC3_COUNTERS rows with key "<name>", then the SAT mirrors as group
/// "sat" with key "sat_<name>".  The key is the row's JSON key and its
/// `pilot --stats` label.  `Stats` is Ic3Stats or const Ic3Stats.
template <typename Stats, typename Fn>
void for_each_counter(Stats& s, Fn&& fn) {
#define PILOT_IC3_VISIT(group, name) fn(#group, #name, s.num_##name);
  PILOT_IC3_COUNTERS(PILOT_IC3_VISIT)
#undef PILOT_IC3_VISIT
#define PILOT_SAT_VISIT(name) fn("sat", "sat_" #name, s.sat_##name);
  PILOT_SAT_COUNTERS(PILOT_SAT_VISIT)
#undef PILOT_SAT_VISIT
}

}  // namespace pilot::ic3
