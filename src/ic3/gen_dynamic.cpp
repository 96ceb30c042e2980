#include "ic3/gen_dynamic.hpp"

#include <stdexcept>

namespace pilot::ic3 {

namespace {

/// Rotation order: prediction first (the paper's contribution, cheapest
/// when it hits), then the drop loops from most to least sophisticated.
const std::vector<std::string>& candidate_order() {
  static const std::vector<std::string> kOrder{"predict", "ctg", "cav23",
                                               "down"};
  return kOrder;
}

/// Defaults of "dynamic[:window[,threshold]]": judge the active strategy
/// over its last 16 generalizations against a 40% success bar.
constexpr std::size_t kDefaultWindow = 16;
constexpr double kDefaultThreshold = 0.4;

}  // namespace

DynamicArgs parse_dynamic_args(const std::string& args) {
  DynamicArgs out;
  if (args.empty()) return out;
  const std::size_t comma = args.find(',');
  const std::string window_text =
      comma == std::string::npos ? args : args.substr(0, comma);
  const std::string threshold_text =
      comma == std::string::npos ? "" : args.substr(comma + 1);
  try {
    if (!window_text.empty()) {
      std::size_t consumed = 0;
      const long long w = std::stoll(window_text, &consumed);
      if (consumed != window_text.size()) throw std::invalid_argument("");
      if (w < 1 ||
          w > static_cast<long long>(GenStrategyStats::kGenWindowCapacity)) {
        throw std::out_of_range("");
      }
      out.window = static_cast<std::size_t>(w);
    }
    if (!threshold_text.empty()) {
      std::size_t consumed = 0;
      const double t = std::stod(threshold_text, &consumed);
      if (consumed != threshold_text.size()) throw std::invalid_argument("");
      if (t < 0.0 || t > 1.0) throw std::out_of_range("");
      out.threshold = t;
    }
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "dynamic strategy args ':" + args +
        "' are malformed; expected 'dynamic[:window[,threshold]]' with "
        "window in [1," +
        std::to_string(GenStrategyStats::kGenWindowCapacity) +
        "] and threshold in [0,1], e.g. 'dynamic:16,0.4'");
  }
  return out;
}

DynamicStrategy::DynamicStrategy(const GenContext& ctx,
                                 const std::string& args)
    : ctx_(ctx) {
  const DynamicArgs parsed = parse_dynamic_args(args);
  window_ = parsed.window.value_or(kDefaultWindow);
  threshold_ = parsed.threshold.value_or(kDefaultThreshold);
  for (const std::string& name : candidate_order()) {
    candidates_.push_back(make_gen_strategy(name, ctx));
  }
}

const std::string& DynamicStrategy::name() const {
  static const std::string kName = "dynamic";
  return kName;
}

const std::string& DynamicStrategy::active_name() const {
  return candidates_[active_]->name();
}

std::vector<std::string> DynamicStrategy::candidate_names() const {
  std::vector<std::string> out;
  out.reserve(candidates_.size());
  for (const auto& c : candidates_) out.push_back(c->name());
  return out;
}

Cube DynamicStrategy::generalize(const Cube& cube, const Cube& core,
                                 std::size_t level, const Deadline& deadline,
                                 const AddLemmaFn& add_lemma) {
  return candidates_[active_]->generalize(cube, core, level, deadline,
                                          add_lemma);
}

void DynamicStrategy::on_push_failure(const Cube& lemma, std::size_t level,
                                      Cube ctp) {
  // Every candidate gets the CTP: the predictor needs its table current
  // even while another strategy is active, so a switch-to-predict starts
  // with fresh parents instead of an empty table.
  for (auto& c : candidates_) {
    if (c->wants_push_failures()) c->on_push_failure(lemma, level, ctp);
  }
}

void DynamicStrategy::on_propagate() {
  for (auto& c : candidates_) c->on_propagate();
  (void)evaluate_switch();
}

std::size_t DynamicStrategy::pick_successor() const {
  // Exploration first: the nearest never-tried candidate after the active
  // one in rotation order.
  for (std::size_t step = 1; step < candidates_.size(); ++step) {
    const std::size_t i = (active_ + step) % candidates_.size();
    const GenStrategyStats* s =
        ctx_.stats.find_gen_strategy(candidates_[i]->name());
    if (s == nullptr || s->attempts == 0) return i;
  }
  // Exploitation: best windowed success rate among the others; ties go to
  // the earliest in rotation order after the active candidate.
  std::size_t best = (active_ + 1) % candidates_.size();
  double best_rate = -1.0;
  for (std::size_t step = 1; step < candidates_.size(); ++step) {
    const std::size_t i = (active_ + step) % candidates_.size();
    const GenStrategyStats* s =
        ctx_.stats.find_gen_strategy(candidates_[i]->name());
    const double rate =
        s == nullptr ? 0.0 : s->window_success_rate(window_);
    if (rate > best_rate) {
      best_rate = rate;
      best = i;
    }
  }
  return best;
}

bool DynamicStrategy::evaluate_switch() {
  GenStrategyStats& active_stats =
      ctx_.stats.gen_strategy(candidates_[active_]->name());
  // Judge only on a full window of samples gathered *since activation*.
  if (active_stats.attempts < attempts_at_activation_ + window_) return false;
  if (active_stats.window_success_rate(window_) >= threshold_) return false;
  const std::size_t next = pick_successor();
  if (next == active_) return false;
  ++active_stats.switches;
  ++ctx_.stats.num_strategy_switches;
  active_ = next;
  attempts_at_activation_ =
      ctx_.stats.gen_strategy(candidates_[active_]->name()).attempts;
  return true;
}

}  // namespace pilot::ic3
