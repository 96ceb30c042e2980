#include "obs/phase.hpp"

#include <cstdio>
#include <mutex>

namespace pilot::obs {
namespace {

constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "block",    "generalize",    "predict",   "propagate",
    "lift",     "rebuild",       "sat_solve", "unroll",
    "exchange", "sat_inprocess", "sat_vivify",
};

}  // namespace

const char* phase_name(Phase phase) {
  const auto index = static_cast<std::size_t>(phase);
  return index < kPhaseCount ? kPhaseNames[index] : "?";
}

std::optional<Phase> phase_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (name == kPhaseNames[i]) return static_cast<Phase>(i);
  }
  return std::nullopt;
}

PhaseProfile& PhaseProfile::operator+=(const PhaseProfile& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    seconds[i] += other.seconds[i];
    calls[i] += other.calls[i];
  }
  return *this;
}

bool PhaseProfile::empty() const {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (calls[i] != 0) return false;
  }
  return true;
}

std::string PhaseProfile::table(double total_seconds) const {
  std::string out;
  out += "phase           calls        seconds   % of total\n";
  char line[128];
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (calls[i] == 0) continue;
    const double pct =
        total_seconds > 0.0 ? 100.0 * seconds[i] / total_seconds : 0.0;
    std::snprintf(line, sizeof(line), "%-14s %6llu %14.3f %11.1f%%\n",
                  kPhaseNames[i], static_cast<unsigned long long>(calls[i]),
                  seconds[i], pct);
    out += line;
  }
  out += "(phases nest — block contains generalize and lift, generalize "
         "contains sat_solve — so rows overlap and do not sum to the total)\n";
  return out;
}

std::uint32_t PhaseScope::phase_zone_id(Phase phase) {
  // Interned once for all phases; the per-call cost is an index load.
  static const std::array<std::uint32_t, kPhaseCount> ids = [] {
    std::array<std::uint32_t, kPhaseCount> table{};
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      table[i] = intern_name(kPhaseNames[i]);
    }
    return table;
  }();
  const auto index = static_cast<std::size_t>(phase);
  return index < kPhaseCount ? ids[index] : 0;
}

}  // namespace pilot::obs
