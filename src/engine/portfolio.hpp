/// \file portfolio.hpp
/// First-verdict-wins portfolio scheduler over the backend registry.
///
/// Runs N backends concurrently — one worker thread each, all over the same
/// immutable `TransitionSystem` — and returns as soon as one produces a
/// definitive verdict (SAFE / UNSAFE).  The winner flips a shared
/// `CancelToken`; the losers observe it at their next deadline poll (deep in
/// the SAT search loop) and return kUnknown promptly, so the portfolio's
/// wall-clock is the *fastest* backend's, not the slowest's.
///
/// Soundness: every backend answers the same reachability question, so any
/// disagreement between definitive verdicts would be an engine bug; the
/// scheduler records every finisher's verdict and run_portfolio's caller can
/// cross-check.  Determinism of the *verdict* is therefore independent of
/// which backend happens to win the race.
///
/// Thread-ownership rules:
///   * the TransitionSystem is shared read-only; backends build their own
///     SAT solvers, so no solver state crosses threads;
///   * each Backend instance is constructed and driven by its own worker;
///   * the shared CancelToken and the winner index are the only cross-thread
///     state, both atomic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "engine/backend.hpp"
#include "engine/lemma_exchange.hpp"
#include "obs/progress.hpp"
#include "ts/transition_system.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pilot::engine {

struct PortfolioOptions {
  /// Backend names to race; empty → default_portfolio_backends().
  std::vector<std::string> backends;
  std::uint64_t seed = 0;
  /// Extra IC3 knobs forwarded to the IC3-family backends.
  std::optional<ic3::Config> ic3_overrides;
  /// Generalization-strategy spec applied to every IC3-family backend
  /// (empty = each keeps its own; see BackendContext::gen_spec).
  std::string gen_spec;
  /// Lifter ternary-simulation backend / MIC drop-filter overrides applied
  /// to every IC3-family backend (unset = config defaults); see
  /// BackendContext.
  std::optional<ic3::Config::LiftSim> lift_sim;
  std::optional<bool> gen_ternary_filter;
  /// SAT inprocessing / batched-generalization-probe overrides applied to
  /// every backend (unset = config defaults); see BackendContext.
  std::optional<bool> sat_inprocess;
  std::optional<int> gen_batch;
  std::optional<bool> gen_batch_adaptive;
  /// Share generalized lemmas between the racing backends through a
  /// LemmaExchange hub; every import is re-validated by the importer, so
  /// verdicts stay sound and deterministic.
  bool share_lemmas = false;
  /// Live-progress monitor (non-owning, may be null): each backend gets its
  /// own named channel so the heartbeat shows a line per racer — a wedged
  /// backend is visible as a flat 0 q/s line while it is wedged.
  obs::ProgressMonitor* progress = nullptr;
  /// Gate every definitive verdict on its certificate
  /// (cert/certificate.hpp): a backend only claims the win once its
  /// invariant / k-induction bound / witness re-checks under the
  /// independent checker.  A failed check quarantines that backend's
  /// result — logged, counted, and excluded from winner selection — while
  /// the race continues with everyone else.
  bool certify = true;
  /// Property index certificates are emitted against (witness "b<n>" line).
  std::size_t property_index = 0;
};

/// Per-backend outcome of one race, in spec order.
struct BackendTiming {
  std::string name;
  ic3::Verdict verdict = ic3::Verdict::kUnknown;
  double seconds = 0.0;
  bool winner = false;
  /// kUnknown because the winner's stop request (or an outer cancel)
  /// aborted this backend — as opposed to its own timeout/bound.
  bool cancelled = false;
  /// Lemma-exchange traffic of this backend (zero when exchange is off or
  /// the backend is not IC3-family).
  std::uint64_t lemmas_published = 0;
  std::uint64_t lemmas_imported = 0;
  std::uint64_t lemmas_rejected = 0;
  /// This backend produced a definitive verdict whose certificate failed
  /// the independent check — the verdict was discarded, not raced.
  bool quarantined = false;
  /// Why the certificate check failed (empty unless quarantined).
  std::string quarantine_reason;
};

struct PortfolioResult {
  /// The winning backend's result; verdict kUnknown when nobody solved the
  /// instance within the deadline.
  EngineResult result;
  /// Name of the winning backend; empty when there is no winner.
  std::string winner;
  /// The winner's certificate, which already passed the certify gate;
  /// nullopt when certify was off or nobody won.
  std::optional<cert::Certificate> certificate;
  std::vector<BackendTiming> timings;
  /// Hub-level exchange counters; all zero when share_lemmas was off.
  LemmaExchangeStats exchange;
};

/// The default race: the two strongest IC3 configurations plus the
/// bug-finding and shallow-proof specialists.
[[nodiscard]] const std::vector<std::string>& default_portfolio_backends();

/// Parses a "+"-separated backend list ("ic3-ctg-pl+bmc+kind").  Throws
/// std::invalid_argument on an empty spec and on unknown or duplicate
/// names; race the default mix by leaving PortfolioOptions::backends empty
/// instead.
[[nodiscard]] std::vector<std::string> parse_portfolio_spec(
    const std::string& spec);

/// A recognized portfolio engine-spec form.
struct PortfolioSpec {
  /// The "-x" form: lemma exchange enabled.
  bool exchange = false;
  /// Parsed backend list; empty = race the default mix.
  std::vector<std::string> backends;
};

/// The ONE matcher for the portfolio engine-spec grammar, shared by every
/// dispatcher (check::check_ts, run_matrix validation, CLI list
/// splitting): "portfolio[:a+b+c]" and "portfolio-x[:a+b+c]".  Returns
/// nullopt when `spec` is not a portfolio form at all (e.g. "ic3-ctg",
/// "portfolio-xyz"); throws std::invalid_argument (via
/// parse_portfolio_spec) when it is one but the backend list is
/// malformed.
[[nodiscard]] std::optional<PortfolioSpec> match_portfolio_spec(
    const std::string& spec);

/// Races the configured backends; first definitive verdict wins and cancels
/// the rest.  `cancel` (nullable) aborts the whole race from outside.
/// Throws std::invalid_argument for unknown backend names — before any
/// thread is spawned.
PortfolioResult run_portfolio(const ts::TransitionSystem& ts,
                              const PortfolioOptions& options,
                              Deadline deadline = {},
                              const CancelToken* cancel = nullptr);

}  // namespace pilot::engine
