#include "ic3/predictor.hpp"

#include <algorithm>

namespace pilot::ic3 {

Predictor::Predictor(SolverManager& solvers, Frames& frames, Ic3Stats& stats)
    : solvers_(solvers), frames_(frames), stats_(stats) {}

std::optional<Cube> Predictor::predict(const Cube& b, std::size_t level,
                                       const Deadline& deadline) {
  if (level < 1) return std::nullopt;
  // Algorithm 2 line 10: parents of clause ¬b live in F_{level-1}\F_level.
  const std::vector<Cube> parents = frames_.parents_of(b, level - 1);
  bool found_failed_parent = false;
  std::optional<Cube> predicted;
  for (const Cube& p : parents) {
    const PushCtp* ctp = frames_.push_ctp(p, level - 1);
    if (ctp == nullptr) continue;  // lines 12-13: no recorded CTP
    found_failed_parent = true;
    // Line 15: the diff set of Definition 3.1.
    predicted = try_parent(b, p, b.diff(ctp->successor), level, deadline);
    if (predicted.has_value()) break;
  }
  if (found_failed_parent) ++stats_.num_found_failed_parents;  // N_fp
  return predicted;
}

std::optional<Cube> Predictor::try_parent(const Cube& b, const Cube& p,
                                          const Cube& ds, std::size_t level,
                                          const Deadline& deadline) {
  if (ds.empty()) {
    // Lines 16-20: b and t intersect (Theorem 3.2) — blocking b may have
    // already blocked the CTP; retry pushing the parent lemma itself.
    ++stats_.num_prediction_queries;  // N_p
    if (solvers_.relative_inductive(p, level - 1,
                                    /*cube_clause_in_frame=*/true, nullptr,
                                    deadline)) {
      ++stats_.num_successful_predictions;  // N_sp
      return p;
    }
    frames_.record_push_ctp(p, level - 1,  // line 20
                            solvers_.model_state(/*primed=*/false),
                            solvers_.model_state(/*primed=*/true));
    return std::nullopt;
  }

  // Lines 22-27: candidates c₃ = p ∪ {d} for d in the diff set (Eq. 6).
  std::vector<Lit> worklist(ds.begin(), ds.end());
  while (!worklist.empty()) {
    const Lit d = worklist.front();
    worklist.erase(worklist.begin());
    const Cube cand = p.with_lit(d);
    ++stats_.num_prediction_queries;  // N_p
    if (solvers_.relative_inductive(cand, level - 1,
                                    /*cube_clause_in_frame=*/false, nullptr,
                                    deadline)) {
      // One literal longer than the parent: treated as high quality, no
      // further variable dropping (paper §3.3 item 3).
      ++stats_.num_successful_predictions;  // N_sp
      return cand;
    }
    // Line 27: the counterexample is likely another CTP of p; prune
    // candidates it also defeats: ds := ds ∩ diff(b, model).
    const Cube fresh = b.diff(solvers_.model_state(/*primed=*/true));
    std::erase_if(worklist, [&](Lit l) { return !fresh.contains(l); });
  }
  return std::nullopt;
}

}  // namespace pilot::ic3
