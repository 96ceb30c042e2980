#include "ic3/generalizer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "obs/phase.hpp"

namespace pilot::ic3 {

namespace {

/// ctgDown limits: recursion depth, CTGs blocked per down() before
/// joining, and failed drops in a row before mic() gives up (IC3ref's
/// micAttempts).
constexpr int kCtgMaxDepth = 1;
constexpr std::size_t kCtgMaxCtgs = 3;
constexpr int kCtgMicAttempts = 3;

/// Defaults of "dynamic[:window[,threshold]]": judge the active recipe
/// over its last 16 generalizations against a 40% success bar.
constexpr std::size_t kDefaultWindow = 16;
constexpr double kDefaultThreshold = 0.4;

/// Throws `why` followed by the strategy names.
[[noreturn]] void reject_listing_names(std::string why) {
  why += "; registered strategies:";
  for (const std::string& name : gen_strategy_names()) why += " " + name;
  throw std::invalid_argument(why);
}

/// Parses the "window[,threshold]" args of a dynamic spec (either part may
/// be omitted: "8", ",0.5", "8,0.5") over `window` and `threshold`.
void parse_dynamic_args(const std::string& args, std::size_t& window,
                        double& threshold) {
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
      window = static_cast<std::size_t>(w);
    }
    if (!threshold_text.empty()) {
      std::size_t consumed = 0;
      const double t = std::stod(threshold_text, &consumed);
      if (consumed != threshold_text.size()) throw std::invalid_argument("");
      // Written so that NaN, which compares false, is rejected too.
      if (!(t >= 0.0 && t <= 1.0)) throw std::out_of_range("");
      threshold = t + 0.0;  // -0 becomes 0, so it prints as "0"
    }
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "dynamic strategy args ':" + args +
        "' are malformed; expected 'dynamic[:window[,threshold]]' with "
        "window in [1," +
        std::to_string(GenStrategyStats::kGenWindowCapacity) +
        "] and threshold in [0,1], e.g. 'dynamic:16,0.4'");
  }
}

}  // namespace

const std::vector<std::string>& gen_strategy_names() {
  static const std::vector<std::string> kNames{"cav23", "ctg", "down",
                                               "dynamic", "predict"};
  return kNames;
}

std::string canonical_gen_spec(const std::string& spec) {
  return Generalizer::parse(spec).text;
}

Generalizer::Spec Generalizer::parse(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  static constexpr std::array<std::pair<std::string_view, DropMode>, 3>
      kDropLoops{{
          {"down", DropMode::kDown},
          {"ctg", DropMode::kCtg},
          {"cav23", DropMode::kCav23},
      }};
  const auto drop_loop = [](std::string_view loop) {
    return std::find_if(kDropLoops.begin(), kDropLoops.end(),
                        [&](const auto& entry) { return entry.first == loop; });
  };
  const bool known = name == "predict" || name == "dynamic" ||
                     drop_loop(name) != kDropLoops.end();
  if (!known) {
    reject_listing_names("unknown generalization strategy '" + name + "'");
  }
  // One spelling per recipe: "ctg:" would be a second "ctg", and
  // "dynamic:8," a second "dynamic:8".
  if (colon != std::string::npos && args.empty()) {
    reject_listing_names("gen strategy spec '" + spec +
                         "' has nothing after ':'");
  }
  if (!args.empty() && args.back() == ',') {
    reject_listing_names("gen strategy spec '" + spec +
                         "' has nothing after ','");
  }
  Spec out{{}, kDefaultWindow, kDefaultThreshold, name};
  if (name == "dynamic") {
    parse_dynamic_args(args, out.window, out.threshold);
    // Rotation order: prediction first (the paper's contribution, cheapest
    // when it hits), then the drop loops from most to least sophisticated.
    out.plans = {{"predict", DropMode::kCtg, true},
                 {"ctg", DropMode::kCtg, false},
                 {"cav23", DropMode::kCav23, false},
                 {"down", DropMode::kDown, false}};
    // Positional args: the window is printed whenever the threshold is.
    const bool default_threshold = out.threshold == kDefaultThreshold;
    if (out.window != kDefaultWindow || !default_threshold) {
      out.text += ':';
      out.text += std::to_string(out.window);
    }
    if (!default_threshold) {
      std::array<char, 32> buf{};
      const auto end =
          std::to_chars(buf.data(), buf.data() + buf.size(), out.threshold)
              .ptr;  // the shortest text that reads back the same double
      out.text += ',';
      out.text.append(buf.data(), end);
    }
  } else if (name == "predict") {
    // The drop loop behind the prediction; bare "predict" runs ctgDown.
    const auto loop = drop_loop(args.empty() ? "ctg" : args);
    if (loop == kDropLoops.end()) {
      reject_listing_names(
          "gen strategy 'predict' falls back to down, ctg or cav23 (got ':" +
          args + "')");
    }
    out.plans = {{"predict", loop->second, true}};
    if (loop->second != DropMode::kCtg) out.text += ":" + args;
  } else {
    if (!args.empty()) {
      throw std::invalid_argument("gen strategy '" + name +
                                  "' takes no ':args' (got ':" + args + "')");
    }
    out.plans = {{name, drop_loop(name)->second, false}};
  }
  return out;
}

Generalizer::Generalizer(const ts::TransitionSystem& ts,
                         SolverManager& solvers, Frames& frames,
                         const Config& cfg, Ic3Stats& stats)
    : ts_(ts),
      solvers_(solvers),
      frames_(frames),
      stats_(stats),
      spec_(parse(cfg.gen_spec)) {
  if (std::any_of(spec_.plans.begin(), spec_.plans.end(),
                  [](const Plan& p) { return p.predict; })) {
    predictor_.emplace(solvers, frames, stats);
  }
}

Cube Generalizer::generalize(const Cube& cube, const Cube& core,
                             std::size_t level, const Deadline& deadline,
                             const AddLemmaFn& add_lemma) {
  ++stats_.num_generalizations;  // N_g
  const std::uint64_t queries_before =
      stats_.num_mic_queries + stats_.num_prediction_queries;
  const std::uint64_t sp_before = stats_.num_successful_predictions;
  const Cube lemma = [&] {
    obs::PhaseScope phase(&stats_.phases, obs::Phase::kGeneralize);
    if (plan().predict) {
      // Algorithm 2: try to predict the lemma from a failed-push parent;
      // only when no candidate validates does the drop loop run.
      const std::optional<Cube> predicted = [&] {
        obs::PhaseScope predict_phase(&stats_.phases, obs::Phase::kPredict);
        return predictor_->predict(cube, level, deadline);
      }();
      if (predicted.has_value()) return *predicted;
    }
    return mic(core, level, /*depth=*/0, deadline, add_lemma);
  }();
  const std::uint64_t spent = stats_.num_mic_queries +
                              stats_.num_prediction_queries - queries_before;
  // Success is measured against `core` — the drop loop's starting point —
  // so unsat-core shrinkage done by the engine's blocking query is not
  // credited to the recipe.  A validated prediction counts as a success in
  // its own right (its point is saving queries, not literals).
  const std::uint64_t dropped =
      lemma.size() < core.size()
          ? static_cast<std::uint64_t>(core.size() - lemma.size())
          : 0;
  const bool predicted = stats_.num_successful_predictions > sp_before;
  stats_.record_gen_outcome(active_name(), dropped > 0 || predicted, spent,
                            dropped);
  return lemma;
}

std::vector<Lit> Generalizer::order_literals(const Cube& cube,
                                             std::size_t level) const {
  std::vector<Lit> order(cube.begin(), cube.end());
  if (plan().drop != DropMode::kCav23 || level == 0) return order;
  // CAV'23 ordering: literals that do NOT occur in any parent lemma of
  // the previous frame are dropped first, so the surviving clause looks
  // like a parent lemma and is more likely to propagate.
  const std::vector<Cube> parents = frames_.parents_of(cube, level - 1);
  if (parents.empty()) return order;
  std::unordered_set<std::int32_t> parent_lits;
  for (const Cube& p : parents) {
    for (const Lit l : p) parent_lits.insert(l.index());
  }
  std::stable_partition(order.begin(), order.end(), [&](Lit l) {
    return parent_lits.find(l.index()) == parent_lits.end();
  });
  return order;
}

// The kCtg loop is IC3ref's mic/ctgDown [Hassan et al., FMCAD'13;
// github.com/arbrad/IC3ref] with its two stopping rules:
//  - micAttempts: mic() returns after kCtgMicAttempts failed drops in a
//    row; a candidate that intersects I is a failed drop, and a
//    successful drop resets the count.
//  - keepTo: a join in ctg_down() that would remove a literal whose own
//    drop already failed fails the drop instead.
// Differences an audit against IC3ref's ctgDown still finds:
//  - Depth: IC3ref's ctgDown at recDepth > maxDepth is one plain
//    consecution query, without joins; here the recursive mic (depth
//    kCtgMaxDepth) blocks no CTG but still joins.
//  - maxJoins: IC3ref caps joins per ctgDown at 2^20; here a join ends
//    the drop only when it is empty or keeps every literal.
//  - Order: IC3ref sorts the cube by literal activity before each mic;
//    here literals go in variable order (order_literals()).
//  - Pushing a blocked CTG: IC3ref keeps the level-1 core while it pushes
//    the CTG forward; here each successful push query shrinks it again.
Cube Generalizer::mic(Cube cube, std::size_t level, int depth,
                      const Deadline& deadline, const AddLemmaFn& add_lemma) {
  std::vector<Lit> kept;  // kCtg: literals whose drop failed (keepTo)
  int attempts = kCtgMicAttempts;
  for (const Lit l : order_literals(cube, level)) {
    if (cube.size() <= 1) break;
    if (!cube.contains(l)) continue;  // removed by an earlier core shrink
    Cube cand = cube.without(l);
    if (plan().drop == DropMode::kCtg) {
      if (ctg_down(cand, kept, level, depth, deadline, add_lemma)) {
        cube = cand;
        ++stats_.num_mic_drops;
        attempts = kCtgMicAttempts;
      } else {
        kept.push_back(l);
        if (--attempts == 0) break;
      }
      continue;
    }
    if (ts_.cube_intersects_init(cand.lits())) continue;
    ++stats_.num_mic_queries;
    Cube core;
    if (solvers_.relative_inductive(cand, level - 1,
                                    /*cube_clause_in_frame=*/false, &core,
                                    deadline)) {
      cube = core;
      ++stats_.num_mic_drops;
    }
  }
  return cube;
}

/// One ctgDown drop attempt: shrinks `cand` to a cube inductive relative
/// to R_{level-1} and returns true, or returns false.  `kept` lists the
/// literals mic() failed to drop; no join removes one of them.
bool Generalizer::ctg_down(Cube& cand, const std::vector<Lit>& kept,
                           std::size_t level, int depth,
                           const Deadline& deadline,
                           const AddLemmaFn& add_lemma) {
  std::size_t ctgs = 0;
  for (;;) {
    if (ts_.cube_intersects_init(cand.lits())) return false;
    ++stats_.num_mic_queries;
    Cube core;
    if (solvers_.relative_inductive(cand, level - 1,
                                    /*cube_clause_in_frame=*/false, &core,
                                    deadline)) {
      cand = core;
      return true;
    }
    // The relative-induction query failed: extract the CTG predecessor.
    const Cube ctg_full = solvers_.model_state(/*primed=*/false);
    const bool may_block_ctg = depth < kCtgMaxDepth && ctgs < kCtgMaxCtgs &&
                               level > 1 &&
                               !ts_.cube_intersects_init(ctg_full.lits());
    if (may_block_ctg) {
      Cube ctg_core;
      if (solvers_.relative_inductive(ctg_full, level - 2,
                                      /*cube_clause_in_frame=*/false,
                                      &ctg_core, deadline)) {
        // The CTG is itself inductive one frame down: block it as high
        // as possible, generalize it recursively, and retry the
        // candidate.
        ++ctgs;
        ++stats_.num_ctg_blocked;
        std::size_t blocked_at = level - 1;
        while (blocked_at < frames_.top_level()) {
          Cube next_core;
          if (!solvers_.relative_inductive(ctg_core, blocked_at,
                                           /*cube_clause_in_frame=*/false,
                                           &next_core, deadline)) {
            break;
          }
          ctg_core = next_core;
          ++blocked_at;
        }
        const Cube g =
            mic(ctg_core, blocked_at, depth + 1, deadline, add_lemma);
        add_lemma(g, blocked_at);
        continue;
      }
    }
    // Join: keep only the literals the CTG shares with the candidate,
    // unless that would remove a literal mic() has kept.
    ctgs = 0;
    const Cube joined = cand.intersect(ctg_full);
    if (joined.empty() || joined.size() == cand.size()) return false;
    for (const Lit k : kept) {
      if (cand.contains(k) && !joined.contains(k)) return false;
    }
    cand = joined;
  }
}

std::size_t Generalizer::pick_successor() const {
  // Exploration first: the nearest never-tried plan after the active one
  // in rotation order.
  for (std::size_t step = 1; step < spec_.plans.size(); ++step) {
    const std::size_t i = (active_ + step) % spec_.plans.size();
    const GenStrategyStats* s = stats_.find_gen_strategy(spec_.plans[i].name);
    if (s == nullptr || s->attempts == 0) return i;
  }
  // Exploitation: best windowed success rate among the others; ties go to
  // the earliest in rotation order after the active plan.
  std::size_t best = (active_ + 1) % spec_.plans.size();
  double best_rate = -1.0;
  for (std::size_t step = 1; step < spec_.plans.size(); ++step) {
    const std::size_t i = (active_ + step) % spec_.plans.size();
    const GenStrategyStats* s = stats_.find_gen_strategy(spec_.plans[i].name);
    const double rate =
        s == nullptr ? 0.0 : s->window_success_rate(spec_.window);
    if (rate > best_rate) {
      best_rate = rate;
      best = i;
    }
  }
  return best;
}

bool Generalizer::evaluate_switch() {
  if (spec_.plans.size() == 1) return false;
  GenStrategyStats& active_stats = stats_.gen_strategy(plan().name);
  // Judge only on a full window of samples gathered *since activation*.
  if (active_stats.attempts < attempts_at_activation_ + spec_.window) {
    return false;
  }
  if (active_stats.window_success_rate(spec_.window) >= spec_.threshold) {
    return false;
  }
  const std::size_t next = pick_successor();
  if (next == active_) return false;
  ++active_stats.switches;
  ++stats_.num_strategy_switches;
  active_ = next;
  attempts_at_activation_ = stats_.gen_strategy(plan().name).attempts;
  return true;
}

}  // namespace pilot::ic3
