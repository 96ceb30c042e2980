#include "ic3/stats.hpp"

#include <algorithm>
#include <sstream>

namespace pilot::ic3 {

void GenStrategyStats::record(bool success_, std::uint64_t queries_,
                              std::uint64_t dropped_) {
  ++attempts;
  successes += success_ ? 1 : 0;
  queries += queries_;
  dropped_lits += dropped_;
  const GenOutcome outcome{success_, static_cast<std::uint32_t>(queries_),
                           static_cast<std::uint32_t>(dropped_)};
  if (window.size() < kGenWindowCapacity) {
    window.push_back(outcome);
    window_next = window.size() % kGenWindowCapacity;
  } else {
    window[window_next] = outcome;
    window_next = (window_next + 1) % kGenWindowCapacity;
  }
}

namespace {

/// Applies `fn` to the newest min(n, stored) outcomes of the ring.
template <typename Fn>
std::size_t for_newest(const std::vector<GenOutcome>& window,
                       std::size_t next, std::size_t n, Fn&& fn) {
  const std::size_t count = std::min(n, window.size());
  for (std::size_t i = 0; i < count; ++i) {
    // Walk backwards from the newest entry (next-1), wrapping.
    const std::size_t idx = (next + window.size() - 1 - i) % window.size();
    fn(window[idx]);
  }
  return count;
}

}  // namespace

double GenStrategyStats::window_success_rate(std::size_t n) const {
  std::size_t ok = 0;
  const std::size_t count = for_newest(
      window, window_next, n, [&](const GenOutcome& o) { ok += o.success; });
  return count == 0 ? 0.0
                    : static_cast<double>(ok) / static_cast<double>(count);
}

double GenStrategyStats::window_avg_queries(std::size_t n) const {
  std::uint64_t total = 0;
  const std::size_t count = for_newest(
      window, window_next, n, [&](const GenOutcome& o) { total += o.queries; });
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

GenStrategyStats& Ic3Stats::gen_strategy(const std::string& name) {
  for (GenStrategyStats& s : gen_strategies) {
    if (s.name == name) return s;
  }
  gen_strategies.emplace_back();
  gen_strategies.back().name = name;
  return gen_strategies.back();
}

const GenStrategyStats* Ic3Stats::find_gen_strategy(
    const std::string& name) const {
  for (const GenStrategyStats& s : gen_strategies) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Ic3Stats::record_gen_outcome(const std::string& name, bool success,
                                  std::uint64_t queries, std::uint64_t dropped) {
  gen_strategy(name).record(success, queries, dropped);
}

std::string Ic3Stats::summary() const {
  std::ostringstream oss;
  oss << "frames=" << max_frame << " lemmas=" << num_lemmas
      << " obligations=" << num_obligations << " ctis=" << num_ctis
      << " generalizations=" << num_generalizations
      << " mic_queries=" << num_mic_queries << " drops=" << num_mic_drops;
  if (num_push_queries > 0 || num_push_ctp_revalidations > 0) {
    oss << " | push: queries=" << num_push_queries
        << " successes=" << num_push_successes
        << " ctp_skips=" << num_push_skipped_by_ctp
        << " ctp_revalidations=" << num_push_ctp_revalidations;
  }
  if (num_prediction_queries > 0 || num_found_failed_parents > 0) {
    oss << " | predict: N_p=" << num_prediction_queries
        << " N_sp=" << num_successful_predictions
        << " N_fp=" << num_found_failed_parents
        << " SR_lp=" << sr_lp() << " SR_fp=" << sr_fp()
        << " SR_adv=" << sr_adv();
  }
  if (num_packed_sim_words > 0) {
    oss << " | ternary: packed_words=" << num_packed_sim_words;
  }
  for (const GenStrategyStats& s : gen_strategies) {
    oss << " | gen[" << s.name << "]: attempts=" << s.attempts
        << " successes=" << s.successes << " queries=" << s.queries
        << " avg_dropped=" << s.avg_dropped();
    if (s.switches > 0) oss << " switches=" << s.switches;
  }
  if (num_strategy_switches > 0) {
    oss << " | dynamic: switches=" << num_strategy_switches;
  }
  if (num_exchange_published > 0 || num_exchange_imported > 0 ||
      num_exchange_rejected > 0 || num_exchange_skipped > 0) {
    oss << " | exchange: published=" << num_exchange_published
        << " imported=" << num_exchange_imported
        << " rejected=" << num_exchange_rejected
        << " skipped=" << num_exchange_skipped;
  }
  if (num_cert_checks > 0) {
    oss << " | cert: checks=" << num_cert_checks
        << " failures=" << num_cert_failures;
  }
  if (sat_solve_calls > 0) {
    oss << " | sat: calls=" << sat_solve_calls
        << " props=" << sat_propagations
        << " conflicts=" << sat_conflicts
        << " reuse_hits=" << sat_trail_reuse_hits
        << " saved_props=" << sat_saved_propagations
        << " bin_props=" << sat_binary_propagations
        << " glue=" << sat_glue_learnts
        << " reductions=" << sat_db_reductions
        << " rebuilds=" << num_solver_rebuilds;
    if (num_rebuild_carried_phases > 0) {
      oss << " carried_vars=" << num_rebuild_carried_phases;
    }
    if (num_rebuild_subsumed > 0) {
      oss << " rebuild_skips=" << num_rebuild_subsumed;
    }
  }
  return oss.str();
}

}  // namespace pilot::ic3
