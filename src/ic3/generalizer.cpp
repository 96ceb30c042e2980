#include "ic3/generalizer.hpp"

#include "obs/phase.hpp"

namespace pilot::ic3 {

Generalizer::Generalizer(const ts::TransitionSystem& ts,
                         SolverManager& solvers, Frames& frames,
                         const Config& cfg, Ic3Stats& stats)
    : stats_(stats),
      strategy_(make_gen_strategy(cfg.gen_spec,
                                  GenContext{ts, solvers, frames, cfg,
                                             stats})) {}

Cube Generalizer::generalize(const Cube& cube, const Cube& core,
                             std::size_t level, const Deadline& deadline,
                             const AddLemmaFn& add_lemma) {
  ++stats_.num_generalizations;  // N_g
  const std::string active = strategy_->active_name();
  const std::uint64_t queries_before =
      stats_.num_mic_queries + stats_.num_prediction_queries;
  const std::uint64_t sp_before = stats_.num_successful_predictions;
  const Cube lemma = [&] {
    obs::PhaseScope phase(&stats_.phases, obs::Phase::kGeneralize);
    return strategy_->generalize(cube, core, level, deadline, add_lemma);
  }();
  const std::uint64_t spent = stats_.num_mic_queries +
                              stats_.num_prediction_queries - queries_before;
  // Success is measured against `core` — the strategy's actual starting
  // point — so unsat-core shrinkage done by the engine's blocking query is
  // not credited to the strategy.  A validated prediction counts as a
  // success in its own right (its point is saving queries, not literals).
  const std::uint64_t dropped =
      lemma.size() < core.size()
          ? static_cast<std::uint64_t>(core.size() - lemma.size())
          : 0;
  const bool predicted = stats_.num_successful_predictions > sp_before;
  stats_.record_gen_outcome(active, dropped > 0 || predicted, spent, dropped);
  return lemma;
}

}  // namespace pilot::ic3
