#include "ic3/gen_strategy.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "ic3/gen_dynamic.hpp"
#include "obs/phase.hpp"
#include "ic3/predictor.hpp"

namespace pilot::ic3 {

namespace {

// ----- fixed strategies ------------------------------------------------------

/// The drop loop a fixed strategy runs.
enum class DropMode {
  kDown,   // plain literal dropping (paper Algorithm 1) — "RIC3" baseline
  kCtg,    // ctgDown [Hassan et al., FMCAD'13] — "IC3ref" baseline
  kCav23,  // kDown with parent-lemma literal ordering [Xia et al., CAV'23]
};

/// The fixed strategies' registry names; `predict` takes one of them as its
/// fallback.
constexpr std::array<std::pair<std::string_view, DropMode>, 3> kDropLoops{{
    {"down", DropMode::kDown},
    {"ctg", DropMode::kCtg},
    {"cav23", DropMode::kCav23},
}};

/// ctgDown limits: recursion depth, CTGs blocked per down() before
/// joining, and failed drops in a row before mic() gives up (IC3ref's
/// micAttempts).
constexpr int kCtgMaxDepth = 1;
constexpr std::size_t kCtgMaxCtgs = 3;
constexpr int kCtgMicAttempts = 3;

/// The three drop-loop strategies share one MIC implementation and differ
/// in literal ordering (cav23) and CTG handling (ctg).
class FixedStrategy final : public GenStrategy {
 public:
  FixedStrategy(const GenContext& ctx, std::string name, DropMode mode)
      : ctx_(ctx), name_(std::move(name)), mode_(mode) {}

  [[nodiscard]] const std::string& name() const override { return name_; }

  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline,
                  const AddLemmaFn& add_lemma) override {
    (void)cube;  // drop loops start from the core-shrunk cube
    return mic(core, level, /*depth=*/0, deadline, add_lemma);
  }

 private:
  [[nodiscard]] std::vector<Lit> order_literals(const Cube& cube,
                                                std::size_t level) const {
    std::vector<Lit> order(cube.begin(), cube.end());
    if (mode_ != DropMode::kCav23 || level == 0) return order;
    // CAV'23 ordering: literals that do NOT occur in any parent lemma of
    // the previous frame are dropped first, so the surviving clause looks
    // like a parent lemma and is more likely to propagate.
    const std::vector<Cube> parents =
        ctx_.frames.parents_of(cube, level - 1);
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
  Cube mic(Cube cube, std::size_t level, int depth, const Deadline& deadline,
           const AddLemmaFn& add_lemma) {
    std::vector<Lit> kept;  // kCtg: literals whose drop failed (keepTo)
    int attempts = kCtgMicAttempts;
    for (const Lit l : order_literals(cube, level)) {
      if (cube.size() <= 1) break;
      if (!cube.contains(l)) continue;  // removed by an earlier core shrink
      Cube cand = cube.without(l);
      if (mode_ == DropMode::kCtg) {
        if (ctg_down(cand, kept, level, depth, deadline, add_lemma)) {
          cube = cand;
          ++ctx_.stats.num_mic_drops;
          attempts = kCtgMicAttempts;
        } else {
          kept.push_back(l);
          if (--attempts == 0) break;
        }
        continue;
      }
      if (ctx_.ts.cube_intersects_init(cand.lits())) continue;
      ++ctx_.stats.num_mic_queries;
      Cube core;
      if (ctx_.solvers.relative_inductive(cand, level - 1,
                                          /*cube_clause_in_frame=*/false,
                                          &core, deadline)) {
        cube = core;
        ++ctx_.stats.num_mic_drops;
      }
    }
    return cube;
  }

  /// One ctgDown drop attempt: shrinks `cand` to a cube inductive relative
  /// to R_{level-1} and returns true, or returns false.  `kept` lists the
  /// literals mic() failed to drop; no join removes one of them.
  bool ctg_down(Cube& cand, const std::vector<Lit>& kept, std::size_t level,
                int depth, const Deadline& deadline,
                const AddLemmaFn& add_lemma) {
    std::size_t ctgs = 0;
    for (;;) {
      if (ctx_.ts.cube_intersects_init(cand.lits())) return false;
      ++ctx_.stats.num_mic_queries;
      Cube core;
      if (ctx_.solvers.relative_inductive(cand, level - 1,
                                          /*cube_clause_in_frame=*/false,
                                          &core, deadline)) {
        cand = core;
        return true;
      }
      // The relative-induction query failed: extract the CTG predecessor.
      const Cube ctg_full = ctx_.solvers.model_state(/*primed=*/false);
      const bool may_block_ctg =
          depth < kCtgMaxDepth && ctgs < kCtgMaxCtgs &&
          level > 1 && !ctx_.ts.cube_intersects_init(ctg_full.lits());
      if (may_block_ctg) {
        Cube ctg_core;
        if (ctx_.solvers.relative_inductive(ctg_full, level - 2,
                                            /*cube_clause_in_frame=*/false,
                                            &ctg_core, deadline)) {
          // The CTG is itself inductive one frame down: block it as high
          // as possible, generalize it recursively, and retry the
          // candidate.
          ++ctgs;
          ++ctx_.stats.num_ctg_blocked;
          std::size_t blocked_at = level - 1;
          while (blocked_at < ctx_.frames.top_level()) {
            Cube next_core;
            if (!ctx_.solvers.relative_inductive(
                    ctg_core, blocked_at, /*cube_clause_in_frame=*/false,
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

  const GenContext ctx_;
  const std::string name_;
  const DropMode mode_;
};

// ----- the DAC'24 prediction strategy ----------------------------------------

/// The fallback drop loop of "predict[:args]": args names a fixed
/// strategy, and bare "predict" falls back to ctgDown.  Throws
/// std::invalid_argument for any other args.
DropMode predict_fallback(const std::string& args) {
  if (args.empty()) return DropMode::kCtg;
  for (const auto& [name, mode] : kDropLoops) {
    if (args == name) return mode;
  }
  std::string msg = "gen strategy 'predict' falls back to down, ctg or cav23 "
                    "(got ':" + args + "'); registered strategies:";
  for (const std::string& name : gen_strategy_names()) msg += " " + name;
  throw std::invalid_argument(msg);
}

/// Prediction in front of a fallback drop loop: try to predict the lemma
/// from a failed-push parent (Algorithm 2); only when no candidate
/// validates does the fallback drop loop run.
class PredictStrategy final : public GenStrategy {
 public:
  PredictStrategy(const GenContext& ctx, DropMode fallback)
      : ctx_(ctx),
        predictor_(ctx.solvers, ctx.frames, ctx.cfg, ctx.stats),
        fallback_(ctx, "predict-fallback", fallback) {}

  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "predict";
    return kName;
  }

  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline,
                  const AddLemmaFn& add_lemma) override {
    const std::optional<Cube> predicted = [&] {
      obs::PhaseScope phase(&ctx_.stats.phases, obs::Phase::kPredict);
      return predictor_.predict(cube, level, deadline);
    }();
    if (predicted.has_value()) return *predicted;
    return fallback_.generalize(cube, core, level, deadline, add_lemma);
  }

  [[nodiscard]] bool wants_push_failures() const override { return true; }

  void on_push_failure(const Cube& lemma, std::size_t level,
                       Cube ctp) override {
    predictor_.record_push_failure(lemma, level, std::move(ctp));
  }

  void on_propagate() override {
    if (ctx_.cfg.clear_failure_push_on_propagate) {
      predictor_.clear();  // paper line 44: reconstruct the hash table
    }
  }

 private:
  const GenContext ctx_;
  Predictor predictor_;
  FixedStrategy fallback_;
};

// ----- registry --------------------------------------------------------------

struct RegistryEntry {
  GenStrategyFactory factory;
  GenArgsValidator validate_args;  // may be null: args must be empty
};

class GenRegistry {
 public:
  static GenRegistry& instance() {
    static GenRegistry registry;
    return registry;
  }

  void add(const std::string& name, GenStrategyFactory factory,
           GenArgsValidator validate_args) {
    if (name.empty() || name.find(':') != std::string::npos) {
      throw std::invalid_argument("gen strategy name '" + name +
                                  "' is malformed (empty or contains ':')");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_
             .emplace(name,
                      RegistryEntry{std::move(factory),
                                    std::move(validate_args)})
             .second) {
      throw std::invalid_argument("gen strategy '" + name +
                                  "' already registered");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) != 0;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;  // std::map keeps them sorted
  }

  [[nodiscard]] RegistryEntry lookup(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument(unknown_message(name));
    }
    return it->second;
  }

 private:
  GenRegistry() {
    for (const auto& [view, mode] : kDropLoops) {
      const std::string name(view);
      entries_.emplace(
          name, RegistryEntry{[name, mode = mode](const GenContext& ctx,
                                                  const std::string& args) {
                                require_no_args(name, args);
                                return std::make_unique<FixedStrategy>(
                                    ctx, name, mode);
                              },
                              nullptr});
    }
    entries_.emplace(
        "predict",
        RegistryEntry{[](const GenContext& ctx, const std::string& args) {
                        return std::make_unique<PredictStrategy>(
                            ctx, predict_fallback(args));
                      },
                      [](const std::string& args) {
                        (void)predict_fallback(args);
                      }});
    entries_.emplace(
        "dynamic",
        RegistryEntry{
            [](const GenContext& ctx, const std::string& args)
                -> std::unique_ptr<GenStrategy> {
              return std::make_unique<DynamicStrategy>(ctx, args);
            },
            [](const std::string& args) { (void)parse_dynamic_args(args); }});
  }

  /// "unknown generalization strategy 'x'; registered: a, b, c" — the
  /// message every CLI surfaces, built under the registry lock's caller.
  [[nodiscard]] std::string unknown_message(const std::string& name) const {
    std::string msg = "unknown generalization strategy '" + name +
                      "'; registered strategies:";
    for (const auto& [known, entry] : entries_) msg += " " + known;
    return msg;
  }

  static void require_no_args(const std::string& name,
                              const std::string& args) {
    if (!args.empty()) {
      throw std::invalid_argument("gen strategy '" + name +
                                  "' takes no ':args' (got ':" + args + "')");
    }
  }

  mutable std::mutex mutex_;
  std::map<std::string, RegistryEntry> entries_;
};

}  // namespace

void register_gen_strategy(const std::string& name, GenStrategyFactory factory,
                           GenArgsValidator validate_args) {
  GenRegistry::instance().add(name, std::move(factory),
                              std::move(validate_args));
}

bool gen_strategy_registered(const std::string& name) {
  return GenRegistry::instance().contains(name);
}

std::vector<std::string> gen_strategy_names() {
  return GenRegistry::instance().names();
}

GenSpec split_gen_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

void validate_gen_spec(const std::string& spec) {
  const GenSpec parts = split_gen_spec(spec);
  const RegistryEntry entry = GenRegistry::instance().lookup(parts.name);
  if (entry.validate_args != nullptr) {
    entry.validate_args(parts.args);
  } else if (!parts.args.empty()) {
    throw std::invalid_argument("gen strategy '" + parts.name +
                                "' takes no ':args' (got ':" + parts.args +
                                "')");
  }
}

std::unique_ptr<GenStrategy> make_gen_strategy(const std::string& spec,
                                               const GenContext& ctx) {
  const GenSpec parts = split_gen_spec(spec);
  return GenRegistry::instance().lookup(parts.name).factory(ctx, parts.args);
}

}  // namespace pilot::ic3
