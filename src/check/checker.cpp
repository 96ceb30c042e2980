#include "check/checker.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "engine/backend.hpp"
#include "obs/progress.hpp"

namespace pilot::check {

const std::vector<std::string>& paper_configurations() {
  static const std::vector<std::string> kConfigs{
      "ic3-down", "ic3-down-pl", "ic3-ctg", "ic3-ctg-pl", "ic3-cav23", "pdr",
  };
  return kConfigs;
}

namespace {

/// Folds an EngineResult into the CheckResult shape shared by every engine
/// and certifies it: the certificate is built once and, with
/// verify_witness, checked once.  `gated` is a certificate the portfolio's
/// certify gate already passed, so it is not checked again.
CheckResult certify(const ts::TransitionSystem& ts, engine::EngineResult r,
                    const CheckOptions& options,
                    std::optional<cert::Certificate> gated = std::nullopt) {
  CheckResult out;
  out.verdict = r.verdict;
  out.seconds = r.seconds;
  out.stats = r.stats;
  out.frames = r.frames;
  if (gated.has_value()) {
    out.certificate = std::move(gated);
    out.witness_checked = true;
  } else if (r.verdict != ic3::Verdict::kUnknown) {
    std::string why;
    out.certificate = cert::from_verdict(
        ts, r.verdict, r.invariant, r.trace, r.kind_k, r.kind_simple_path,
        options.property_index, &why);
    if (options.verify_witness) {
      ++out.stats.num_cert_checks;
      const cert::CheckOutcome c =
          out.certificate.has_value()
              ? cert::check(ts, *out.certificate, options.seed)
              : cert::CheckOutcome{false, why};
      out.witness_checked = c.ok;
      out.witness_error = c.reason;
      if (!c.ok) ++out.stats.num_cert_failures;
    }
  }
  out.trace = std::move(r.trace);
  out.invariant = std::move(r.invariant);
  out.kind_k = r.kind_k;
  out.kind_simple_path = r.kind_simple_path;
  return out;
}

[[nodiscard]] Deadline deadline_for(const CheckOptions& options) {
  return options.budget_ms > 0 ? Deadline::in_milliseconds(options.budget_ms)
                               : Deadline{};
}

/// The `--progress` heartbeat for one check call, when requested.  The
/// monitor thread starts immediately; engines register their channels
/// lazily (add_channel is safe while the monitor runs) and the destructor
/// joins the thread before the check returns.
[[nodiscard]] std::unique_ptr<obs::ProgressMonitor> monitor_for(
    const CheckOptions& options) {
  if (options.progress_interval <= 0.0) return nullptr;
  auto monitor = std::make_unique<obs::ProgressMonitor>(
      options.progress_interval);
  monitor->start();
  return monitor;
}

/// `backends` empty = race the default mix.
CheckResult run_portfolio_backends(const ts::TransitionSystem& ts,
                                   std::vector<std::string> backends,
                                   const CheckOptions& options,
                                   bool share_lemmas) {
  const std::unique_ptr<obs::ProgressMonitor> monitor = monitor_for(options);
  engine::PortfolioOptions po;
  po.progress = monitor.get();
  po.backends = std::move(backends);
  po.seed = options.seed;
  po.gen_spec = options.gen_spec;
  po.lift_sim = options.lift_sim;
  po.gen_ternary_filter = options.gen_ternary_filter;
  po.sat_inprocess = options.sat_inprocess;
  po.gen_batch = options.gen_batch;
  po.gen_batch_adaptive = options.gen_batch_adaptive;
  po.share_lemmas = share_lemmas;
  // The certificate gate rides the verify-witness switch: every definitive
  // verdict must re-check under the independent checker before it can win
  // the race; failures quarantine the backend instead of cancelling.
  po.certify = options.verify_witness;
  po.property_index = options.property_index;
  // ic3_overrides is deliberately NOT forwarded: one override applied to
  // every IC3-family backend would collapse the race into identical
  // configurations.  Overrides apply to single-engine specs only.
  // (gen_spec IS forwarded: the backends still differ in their base
  // configurations, and a uniform strategy override is the point of
  // `--gen` — e.g. racing every config under "dynamic".)
  engine::PortfolioResult pr =
      engine::run_portfolio(ts, po, deadline_for(options), options.cancel);
  CheckResult out =
      certify(ts, std::move(pr.result), options, std::move(pr.certificate));
  out.winner = std::move(pr.winner);
  out.backend_timings = std::move(pr.timings);
  out.exchange = pr.exchange;
  return out;
}

}  // namespace

CheckResult check_ts(const ts::TransitionSystem& ts,
                     const CheckOptions& options) {
  const std::string& spec = options.engine_spec;
  // "portfolio[:a+b+c]" races without lemma exchange, "portfolio-x[:…]"
  // with it; CheckOptions::share_lemmas turns it on for either form.
  if (std::optional<engine::PortfolioSpec> ps =
          engine::match_portfolio_spec(spec)) {
    return run_portfolio_backends(ts, std::move(ps->backends), options,
                                  ps->exchange || options.share_lemmas);
  }

  const std::unique_ptr<obs::ProgressMonitor> monitor = monitor_for(options);
  engine::BackendContext ctx;
  if (monitor != nullptr) ctx.progress = monitor->add_channel(spec);
  ctx.seed = options.seed;
  ctx.ic3_overrides = options.ic3_overrides;
  ctx.gen_spec = options.gen_spec;
  ctx.lift_sim = options.lift_sim;
  ctx.gen_ternary_filter = options.gen_ternary_filter;
  ctx.sat_inprocess = options.sat_inprocess;
  ctx.gen_batch = options.gen_batch;
  ctx.gen_batch_adaptive = options.gen_batch_adaptive;
  const std::unique_ptr<engine::Backend> backend =
      engine::make_backend(spec, ts, ctx);
  engine::EngineResult r =
      backend->check(deadline_for(options), options.cancel);
  return certify(ts, std::move(r), options);
}

CheckResult check_aig(const aig::Aig& aig, const CheckOptions& options) {
  const ts::TransitionSystem ts =
      ts::TransitionSystem::from_aig(aig, options.property_index);
  return check_ts(ts, options);
}

}  // namespace pilot::check
