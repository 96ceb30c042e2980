#include "engine/backend.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "bmc/bmc.hpp"
#include "bmc/kinduction.hpp"

namespace pilot::engine {
namespace {

// ----- built-in backends -----------------------------------------------------

/// Every IC3 engine configuration: the registry name picks the ic3::Config,
/// the context's patch adjusts it, check() is a thin adapter around
/// ic3::Engine.
class Ic3Backend final : public Backend {
 public:
  Ic3Backend(std::string name, const ts::TransitionSystem& ts,
             const BackendContext& ctx)
      : name_(std::move(name)),
        ts_(ts),
        cfg_(ic3_config_for(name_, ctx.seed)) {
    ctx.patch.apply(cfg_);
    cfg_.lemma_bus = ctx.lemma_bus;
    cfg_.progress = ctx.progress;
  }

  [[nodiscard]] const std::string& name() const override { return name_; }

  EngineResult check(const Deadline& deadline,
                     const CancelToken* cancel) override {
    ic3::Engine engine(ts_, cfg_);
    ic3::Result r = engine.check(deadline, cancel);
    EngineResult out;
    // IC3 is complete: kUnknown only ever means the run was cut short.
    out.interrupted = r.verdict == ic3::Verdict::kUnknown;
    out.verdict = r.verdict;
    out.seconds = r.seconds;
    out.frames = r.frames;
    out.stats = r.stats;
    out.trace = std::move(r.trace);
    out.invariant = std::move(r.invariant);
    return out;
  }

 private:
  std::string name_;
  const ts::TransitionSystem& ts_;
  ic3::Config cfg_;
};

class BmcBackend final : public Backend {
 public:
  BmcBackend(const ts::TransitionSystem& ts, const BackendContext& ctx)
      : ts_(ts) {
    options_.seed = ctx.seed;
    options_.progress = ctx.progress;
  }

  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "bmc";
    return kName;
  }

  EngineResult check(const Deadline& deadline,
                     const CancelToken* cancel) override {
    bmc::BmcResult r = bmc::run_bmc(ts_, options_, deadline, cancel);
    EngineResult out;
    out.seconds = r.seconds;
    out.stats.absorb_sat(r.sat_stats);
    out.stats.phases = r.phases;
    out.stats.time_total = r.seconds;
    // kBoundReached is BMC completing on its own; kUnknown is an abort.
    out.interrupted = r.verdict == bmc::BmcVerdict::kUnknown;
    if (r.verdict == bmc::BmcVerdict::kUnsafe) {
      out.verdict = ic3::Verdict::kUnsafe;
      out.frames = static_cast<std::size_t>(r.counterexample_length);
      out.trace = std::move(r.trace);
    }
    out.stats.max_frame = out.frames;
    return out;  // bound reached / unknown → kUnknown (BMC cannot prove)
  }

 private:
  const ts::TransitionSystem& ts_;
  bmc::BmcOptions options_;
};

class KinductionBackend final : public Backend {
 public:
  KinductionBackend(const ts::TransitionSystem& ts, const BackendContext& ctx)
      : ts_(ts) {
    options_.seed = ctx.seed;
    options_.progress = ctx.progress;
  }

  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "kind";
    return kName;
  }

  EngineResult check(const Deadline& deadline,
                     const CancelToken* cancel) override {
    bmc::KindResult r = bmc::run_kinduction(ts_, options_, deadline, cancel);
    EngineResult out;
    out.seconds = r.seconds;
    out.stats.absorb_sat(r.sat_stats);
    out.stats.phases = r.phases;
    out.stats.time_total = r.seconds;
    out.interrupted = r.verdict == bmc::KindVerdict::kUnknown;
    if (r.k >= 0) out.frames = static_cast<std::size_t>(r.k);
    out.stats.max_frame = out.frames;
    if (r.verdict == bmc::KindVerdict::kSafe) {
      out.verdict = ic3::Verdict::kSafe;
      out.kind_k = r.k;
      out.kind_simple_path = options_.simple_path;
    }
    if (r.verdict == bmc::KindVerdict::kUnsafe) {
      out.verdict = ic3::Verdict::kUnsafe;
      out.trace = std::move(r.trace);
    }
    return out;
  }

 private:
  const ts::TransitionSystem& ts_;
  bmc::KindOptions options_;
};

// ----- registry --------------------------------------------------------------

class Registry {
 public:
  static Registry& instance() {
    static Registry registry;
    return registry;
  }

  void add(const std::string& name, BackendFactory factory) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!factories_.emplace(name, std::move(factory)).second) {
      throw std::invalid_argument("backend '" + name + "' already registered");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;  // std::map keeps them sorted
  }

  [[nodiscard]] std::unique_ptr<Backend> make(const std::string& name,
                                              const ts::TransitionSystem& ts,
                                              const BackendContext& ctx) const {
    BackendFactory factory;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) {
      // Message built outside the lock: unknown_engine_message re-enters
      // the registry for the name list.
      throw std::invalid_argument(unknown_engine_message(name));
    }
    return factory(ts, ctx);
  }

 private:
  Registry() {
    // Built-in engines, available in every binary linking pilot_core.
    for (const char* name :
         {"ic3-down", "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl", "ic3-cav23",
          "ic3-dyn", "pdr"}) {
      factories_.emplace(name,
                         [name = std::string(name)](
                             const ts::TransitionSystem& ts,
                             const BackendContext& ctx) {
                           return std::make_unique<Ic3Backend>(name, ts, ctx);
                         });
    }
    factories_.emplace("bmc", [](const ts::TransitionSystem& ts,
                                 const BackendContext& ctx) {
      return std::make_unique<BmcBackend>(ts, ctx);
    });
    factories_.emplace("kind", [](const ts::TransitionSystem& ts,
                                  const BackendContext& ctx) {
      return std::make_unique<KinductionBackend>(ts, ctx);
    });
  }

  mutable std::mutex mutex_;
  std::map<std::string, BackendFactory> factories_;
};

}  // namespace

void register_backend(const std::string& name, BackendFactory factory) {
  Registry::instance().add(name, std::move(factory));
}

bool backend_registered(const std::string& name) {
  return Registry::instance().contains(name);
}

std::vector<std::string> backend_names() {
  return Registry::instance().names();
}

std::unique_ptr<Backend> make_backend(const std::string& name,
                                      const ts::TransitionSystem& ts,
                                      const BackendContext& ctx) {
  return Registry::instance().make(name, ts, ctx);
}

std::string unknown_engine_message(const std::string& token) {
  std::string msg = "unknown engine '" + token + "'; registered engines:";
  for (const std::string& name : backend_names()) msg += " " + name;
  msg +=
      "; or portfolio[:a+b+c] / portfolio-x[:a+b+c] to race several "
      "backends (x = with lemma exchange)";
  return msg;
}

ic3::Config ic3_config_for(const std::string& name, std::uint64_t seed) {
  // Each IC3 registry name is one generalization recipe (SuYC24 Table 1);
  // ic3-dyn is SuYC25's mid-run switching between them.  ABC-PDR is
  // ic3-down; "pdr" stays a name so old campaigns still resolve.
  static const std::map<std::string, std::string> kSpecs{
      {"ic3-down", "down"},   {"ic3-down-pl", "predict:down"},
      {"ic3-ctg", "ctg"},     {"ic3-ctg-pl", "predict:ctg"},
      {"ic3-cav23", "cav23"}, {"ic3-dyn", "dynamic"},
      {"pdr", "down"},
  };
  const auto it = kSpecs.find(name);
  if (it == kSpecs.end()) {
    throw std::invalid_argument("ic3_config_for: '" + name +
                                "' is not an IC3-family engine");
  }
  ic3::Config cfg;
  cfg.seed = seed;
  cfg.gen_spec = it->second;
  return cfg;
}

}  // namespace pilot::engine
