#include "ic3/stats.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace pilot::ic3 {

void GenStrategyStats::record(bool success_, std::uint64_t queries_,
                              std::uint64_t dropped_) {
  ++attempts;
  successes += success_ ? 1 : 0;
  queries += queries_;
  dropped_lits += dropped_;
  if (window.size() < kGenWindowCapacity) {
    window.push_back(success_);
    window_next = window.size() % kGenWindowCapacity;
  } else {
    window[window_next] = success_;
    window_next = (window_next + 1) % kGenWindowCapacity;
  }
}

double GenStrategyStats::window_success_rate(std::size_t n) const {
  const std::size_t count = std::min(n, window.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Walk backwards from the newest entry (window_next-1), wrapping.
    ok += window[(window_next + window.size() - 1 - i) % window.size()];
  }
  return count == 0 ? 0.0
                    : static_cast<double>(ok) / static_cast<double>(count);
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
  oss << "frames=" << max_frame;
  std::string_view group;
  std::ostringstream row;
  bool nonzero = false;
  const auto flush_group = [&] {
    if (nonzero) {
      oss << " | " << group << ":" << row.str();
      if (group == "predict") {
        oss << " SR_lp=" << sr_lp() << " SR_fp=" << sr_fp()
            << " SR_adv=" << sr_adv();
      }
    }
    row.str("");
    nonzero = false;
  };
  for_each_counter(*this, [&](std::string_view g, std::string_view key,
                               std::uint64_t value) {
    if (g != group) {
      flush_group();
      group = g;
    }
    row << ' ' << key << '=' << value;
    nonzero = nonzero || value != 0;
  });
  flush_group();
  for (const GenStrategyStats& s : gen_strategies) {
    oss << " | gen[" << s.name << "]: attempts=" << s.attempts
        << " successes=" << s.successes << " queries=" << s.queries
        << " avg_dropped=" << s.avg_dropped();
    if (s.switches > 0) oss << " switches=" << s.switches;
  }
  return oss.str();
}

}  // namespace pilot::ic3
