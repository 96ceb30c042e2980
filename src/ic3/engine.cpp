#include "ic3/engine.hpp"

#include <algorithm>
#include <cassert>

#include "obs/phase.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace pilot::ic3 {

Engine::Engine(const ts::TransitionSystem& ts, Config cfg)
    : ts_(ts),
      cfg_(cfg),
      solvers_(ts_, cfg_, stats_),
      lifter_(ts_, stats_),
      generalizer_(ts_, solvers_, frames_, cfg_, stats_) {}

void Engine::add_lemma(const Cube& cube, std::size_t level) {
  if (frames_.add_lemma(cube, level)) {
    solvers_.add_lemma_clause(cube, level);
    ++stats_.num_lemmas;
    if (cfg_.lemma_bus != nullptr && !importing_) {
      cfg_.lemma_bus->publish(cube, level);
      ++stats_.num_exchange_published;
    }
  }
}

void Engine::import_shared_lemmas(const Deadline& deadline) {
  if (cfg_.lemma_bus == nullptr) return;
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kExchange);
  for (SharedLemma& shared : cfg_.lemma_bus->poll()) {
    if (cancel_ != nullptr && cancel_->stop_requested()) throw TimeoutError{};
    // Clamp to our own frame sequence: the publisher may be further along.
    const std::size_t level =
        std::min(shared.level, frames_.top_level());
    if (level < 1 || shared.cube.empty() ||
        ts_.cube_intersects_init(shared.cube.lits())) {
      ++stats_.num_exchange_rejected;
      continue;
    }
    if (frames_.subsumed_at(shared.cube, level)) {
      ++stats_.num_exchange_skipped;
      continue;
    }
    // One relative-induction query against OUR frames decides the import:
    // peers run different strategies over different frame sequences, so a
    // shared lemma is a candidate, never a fact.
    Cube core;
    if (solvers_.relative_inductive(shared.cube, level - 1,
                                    /*cube_clause_in_frame=*/false, &core,
                                    deadline)) {
      importing_ = true;
      add_lemma(core, level);
      importing_ = false;
      ++stats_.num_exchange_imported;
    } else {
      ++stats_.num_exchange_rejected;
    }
  }
}

Result Engine::check(Deadline deadline, const CancelToken* cancel) {
  Timer total;
  Result result;
  cancel_ = cancel;
  if (cancel != nullptr) deadline = deadline.with_cancel(*cancel);
  try {
    frames_.ensure_level(0);
    solvers_.ensure_level(0);

    // Step-0 counterexample: a state in I that can raise bad.
    if (solvers_.solve_bad(0, deadline)) {
      const Cube state_full = solvers_.model_state(/*primed=*/false);
      const std::vector<Lit> inputs = solvers_.model_inputs();
      const Cube state = lifter_.lift_bad(state_full, inputs);
      result.verdict = Verdict::kUnsafe;
      result.trace = Trace{{state}, {inputs}};
    } else if (ts_.num_latches() == 0) {
      // Purely combinational problem: the step-0 query decides it.
      result.verdict = Verdict::kSafe;
      result.invariant = InductiveInvariant{};
    } else {
      std::size_t k = 1;
      frames_.ensure_level(1);
      solvers_.ensure_level(1);
      for (;;) {
        if (cancel_ != nullptr && cancel_->stop_requested()) throw TimeoutError{};
        // ---- blocking phase: make R_k exclude the bad cone ----
        bool unsafe = false;
        {
          obs::PhaseScope block_phase(&stats_.phases, obs::Phase::kBlock);
          while (solvers_.solve_bad(k, deadline)) {
            const Cube state_full = solvers_.model_state(/*primed=*/false);
            const std::vector<Lit> inputs = solvers_.model_inputs();
            const Cube state = lifter_.lift_bad(state_full, inputs);
            pool_.clear();
            queue_.clear();
            cex_leaf_ = -1;
            pool_.push_back(Obligation{state, k, 0, -1, inputs});
            ++stats_.num_obligations;
            if (!block(0, deadline)) {
              result.verdict = Verdict::kUnsafe;
              result.trace = build_trace(cex_leaf_);
              unsafe = true;
              break;
            }
          }
        }
        if (unsafe) break;

        // ---- propagation phase ----
        ++k;
        frames_.ensure_level(k);
        solvers_.ensure_level(k);
        stats_.max_frame = std::max(stats_.max_frame, k);
        solvers_.maybe_rebuild(frames_);
        import_shared_lemmas(deadline);
        // Frame boundary: refresh the sat_* mirrors so mid-run traces and
        // the heartbeat see live solver counters, not epilogue-only zeros.
        stats_.absorb_sat(solvers_.sat_stats());
        PILOT_TRACE_COUNTER("lemmas", frames_.total_lemmas());
        PILOT_TRACE_COUNTER("sat_conflicts", stats_.sat_conflicts);
        publish_progress();
        if (propagate(deadline)) {
          result.verdict = Verdict::kSafe;
          // Fixpoint level: first i with empty delta (propagate found it).
          for (std::size_t i = 1; i < frames_.top_level(); ++i) {
            if (frames_.delta(i).empty()) {
              result.invariant = collect_invariant(i);
              break;
            }
          }
          break;
        }
        PILOT_INFO("frame " << k << ": lemmas=" << frames_.total_lemmas()
                            << " " << stats_.summary());
      }
    }
  } catch (const TimeoutError&) {
    // Timeout or cancellation: report UNKNOWN with the statistics gathered
    // so far.
    result.verdict = Verdict::kUnknown;
  }
  // Whatever the outcome — verdict, timeout, or cancellation — no
  // proof-obligation state survives the run (pending_obligations() == 0);
  // the trace, if any, was already assembled from the pool.
  pool_.clear();
  queue_.clear();
  cex_leaf_ = -1;
  cancel_ = nullptr;
  result.frames = stats_.max_frame;
  result.seconds = total.seconds();
  stats_.time_total = result.seconds;
  stats_.absorb_sat(solvers_.sat_stats());
  result.stats = stats_;
  return result;
}

bool Engine::block(int root_index, const Deadline& deadline) {
  queue_.insert(QueueKey{pool_[root_index].level, pool_[root_index].depth,
                         root_index});
  while (!queue_.empty()) {
    if (cancel_ != nullptr && cancel_->stop_requested()) throw TimeoutError{};
    const auto it = queue_.begin();
    const int idx = std::get<2>(*it);
    queue_.erase(it);
    publish_progress();
    Obligation& ob = pool_[idx];

    // Already blocked by an existing lemma?
    if (frames_.subsumed_at(ob.cube, ob.level)) {
      if (ob.level < frames_.top_level()) {
        ++ob.level;
        queue_.insert(QueueKey{ob.level, ob.depth, idx});
      }
      continue;
    }

    Cube core;
    if (solvers_.relative_inductive(ob.cube, ob.level - 1,
                                    /*cube_clause_in_frame=*/false, &core,
                                    deadline)) {
      // The cube is blocked; the configured strategy generalizes it (the
      // driver counts N_g and the per-strategy outcome).
      const Cube lemma = generalizer_.generalize(
          ob.cube, core, ob.level, deadline,
          [this](const Cube& c, std::size_t lv) { add_lemma(c, lv); });

      // Push the lemma as high as it proves inductive (paper lines 36-38);
      // on failure hand the CTP successor to the strategy.
      std::size_t j = ob.level;
      while (j < frames_.top_level()) {
        if (!solvers_.relative_inductive(lemma, j,
                                         /*cube_clause_in_frame=*/false,
                                         nullptr, deadline)) {
          if (generalizer_.wants_push_failures()) {
            generalizer_.on_push_failure(
                lemma, j, solvers_.model_state(/*primed=*/true));
          }
          break;
        }
        ++j;
      }
      add_lemma(lemma, j);
      if (j < frames_.top_level()) {
        ob.level = j + 1;
        queue_.insert(QueueKey{ob.level, ob.depth, idx});
      }
    } else {
      // Counterexample to induction: chase the predecessor.
      ++stats_.num_ctis;
      const Cube pred_full = solvers_.model_state(/*primed=*/false);
      const std::vector<Lit> inputs = solvers_.model_inputs();
      const Cube pred = lifter_.lift_predecessor(pred_full, inputs, ob.cube);
      // push_back below may reallocate pool_, invalidating `ob` — snapshot
      // the fields needed afterwards.
      const std::size_t ob_level = ob.level;
      const std::size_t ob_depth = ob.depth;
      pool_.push_back(
          Obligation{pred, ob_level - 1, ob_depth + 1, idx, inputs});
      const int pidx = static_cast<int>(pool_.size()) - 1;
      ++stats_.num_obligations;
      if (ts_.cube_intersects_init(pred.lits())) {
        cex_leaf_ = pidx;
        return false;
      }
      queue_.insert(QueueKey{pool_[pidx].level, pool_[pidx].depth, pidx});
      queue_.insert(QueueKey{ob_level, ob_depth, idx});
    }
  }
  return true;
}

void Engine::publish_progress() {
  if (cfg_.progress == nullptr) return;
  stats_.absorb_sat(solvers_.sat_stats());
  obs::ProgressSnapshot s;
  s.frames = stats_.max_frame;
  s.obligations = stats_.num_obligations;
  s.lemmas = stats_.num_lemmas;
  s.ctis = stats_.num_ctis;
  s.sat_solves = stats_.sat_solve_calls;
  s.sat_conflicts = stats_.sat_conflicts;
  cfg_.progress->publish(s);
}

bool Engine::propagate(const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kPropagate);
  // Propagation boundary: strategies clear their failure tables (paper
  // line 44) and the dynamic meta-strategy evaluates its switching policy.
  generalizer_.on_propagate();
  const std::uint64_t pass_start = frames_.install_count();
  PushCtpMap kept;  // this pass's CTPs; entries not visited again die
  bool fixpoint = false;
  for (std::size_t i = 1; i < frames_.top_level() && !fixpoint; ++i) {
    // Only its own push takes a lemma out of delta(i) during the pass: no
    // lemma subsumes another at its own level or above (Frames), so every
    // snapshot entry is still in delta(i) when it is visited.
    const std::vector<Cube> snapshot = frames_.delta(i);
    for (const Cube& c : snapshot) {
      if (cancel_ != nullptr && cancel_->stop_requested()) throw TimeoutError{};
      CubeLevelKey key{c, i};
      if (auto cached = push_ctps_.extract(key); !cached.empty()) {
        ++stats_.num_push_ctp_revalidations;
        PushCtp& ctp = cached.mapped();
        if (ctp_still_valid(ctp, i)) {
          // The cached model still satisfies R_i ∧ T ∧ c′: the push fails
          // again, so skip its solve.
          ++stats_.num_push_skipped_by_ctp;
#ifndef NDEBUG
          const bool pushed = solvers_.relative_inductive(
              c, i, /*cube_clause_in_frame=*/true, nullptr, deadline);
          assert(!pushed && "a cached CTP skipped a push that succeeds");
#endif
          ctp.stamp = frames_.install_count();
          if (generalizer_.wants_push_failures()) {
            generalizer_.on_push_failure(c, i, ctp.successor);
          }
          kept.insert(std::move(cached));
          continue;
        }
      }
      ++stats_.num_push_queries;
      if (solvers_.relative_inductive(c, i, /*cube_clause_in_frame=*/true,
                                      nullptr, deadline)) {
        frames_.push_lemma(c, i);
        solvers_.add_lemma_clause(c, i + 1);
        ++stats_.num_push_successes;
      } else {
        // Record the counterexample to propagation (paper lines 49-50).
        PushCtp ctp{solvers_.model_state(/*primed=*/false),
                    solvers_.model_state(/*primed=*/true),
                    frames_.install_count()};
        if (generalizer_.wants_push_failures()) {
          generalizer_.on_push_failure(c, i, ctp.successor);
        }
        kept.emplace(std::move(key), std::move(ctp));
      }
    }
    if (frames_.delta(i).empty()) fixpoint = true;
  }
  push_ctps_ = std::move(kept);
  // Every kept entry is stamped at or after pass_start.
  frames_.forget_installs_before(pass_start);
  return fixpoint;
}

bool Engine::ctp_still_valid(const PushCtp& ctp, std::size_t level) const {
  for (const LemmaInstall& install : frames_.installs_since(ctp.stamp)) {
    if (install.level < level || install.from >= level) continue;
    // s satisfies the clause ¬d iff it falsifies a literal of d.  s may be
    // partial (model_state drops unassigned latches), so test for ¬l in s
    // rather than d ⊄ s.
    const auto falsified = [&](Lit l) { return ctp.state.contains(~l); };
    if (std::none_of(install.cube.begin(), install.cube.end(), falsified)) {
      return false;
    }
  }
  return true;
}

Trace Engine::build_trace(int leaf_index) const {
  Trace trace;
  for (int idx = leaf_index; idx >= 0; idx = pool_[idx].successor) {
    trace.states.push_back(pool_[idx].cube);
    trace.inputs.push_back(pool_[idx].inputs);
  }
  return trace;
}

InductiveInvariant Engine::collect_invariant(
    std::size_t fixpoint_level) const {
  InductiveInvariant inv;
  for (std::size_t j = fixpoint_level; j <= frames_.top_level(); ++j) {
    for (const Cube& c : frames_.delta(j)) {
      inv.lemma_cubes.push_back(c);
    }
  }
  return inv;
}

}  // namespace pilot::ic3
