#include "engine/portfolio.hpp"

#include <atomic>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "cert/certificate.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace pilot::engine {

const std::vector<std::string>& default_portfolio_backends() {
  static const std::vector<std::string> kDefaults{
      "ic3-ctg-pl", "ic3-down-pl", "bmc", "kind"};
  return kDefaults;
}

std::vector<std::string> parse_portfolio_spec(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument(
        "portfolio spec is empty (omit the ':' to race the default mix)");
  }
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t plus = spec.find('+', start);
    const std::size_t end = plus == std::string::npos ? spec.size() : plus;
    const std::string name = spec.substr(start, end - start);
    if (name.empty()) {
      throw std::invalid_argument("portfolio spec '" + spec +
                                  "': empty backend name");
    }
    if (!backend_registered(name)) {
      throw std::invalid_argument("portfolio spec '" + spec + "': " +
                                  unknown_engine_message(name));
    }
    for (const std::string& seen : names) {
      if (seen == name) {
        throw std::invalid_argument("portfolio spec: duplicate backend '" +
                                    name + "'");
      }
    }
    names.push_back(name);
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return names;
}

std::optional<PortfolioSpec> match_portfolio_spec(const std::string& spec) {
  for (const auto& [prefix, exchange] :
       {std::pair<const char*, bool>{"portfolio-x", true},
        std::pair<const char*, bool>{"portfolio", false}}) {
    const std::string_view p(prefix);
    if (spec.rfind(p, 0) != 0) continue;
    if (spec.size() == p.size()) return PortfolioSpec{exchange, {}};
    if (spec[p.size()] != ':') continue;  // e.g. "portfolio-xyz"
    // An empty list after the ':' is a malformed spec, rejected by
    // parse_portfolio_spec — it does not silently mean "defaults".
    return PortfolioSpec{exchange,
                         parse_portfolio_spec(spec.substr(p.size() + 1))};
  }
  return std::nullopt;
}

PortfolioResult run_portfolio(const ts::TransitionSystem& ts,
                              const PortfolioOptions& options,
                              Deadline deadline, const CancelToken* cancel) {
  Timer race_timer;
  const std::vector<std::string>& names =
      options.backends.empty() ? default_portfolio_backends()
                               : options.backends;

  // The exchange hub and per-backend endpoints must outlive the workers;
  // peers are registered here, while still single-threaded.
  std::unique_ptr<LemmaExchange> hub;
  std::vector<std::unique_ptr<PeerBus>> buses;
  if (options.share_lemmas) hub = std::make_unique<LemmaExchange>();

  // Build every backend up front so an unknown name throws before any
  // thread exists.
  std::vector<std::unique_ptr<Backend>> backends;
  backends.reserve(names.size());
  for (const std::string& name : names) {
    BackendContext ctx;
    ctx.seed = options.seed;
    ctx.patch = options.patch;
    if (hub != nullptr) {
      buses.push_back(std::make_unique<PeerBus>(*hub, hub->add_peer()));
      ctx.lemma_bus = buses.back().get();
    }
    if (options.progress != nullptr) {
      ctx.progress = options.progress->add_channel(name);
    }
    backends.push_back(make_backend(name, ts, ctx));
  }

  // The race: `stop` chains the caller's token so an outer abort also stops
  // every worker; the first definitive verdict claims `winner` and stops
  // the rest.
  CancelToken stop(cancel);
  std::atomic<int> winner{-1};
  std::vector<EngineResult> results(backends.size());
  // Per-worker quarantine slots (vector<char>, not vector<bool>: each
  // worker writes only its own element, which must be a distinct object).
  std::vector<char> quarantined(backends.size(), 0);
  std::vector<std::string> quarantine_reasons(backends.size());
  std::vector<std::optional<cert::Certificate>> certificates(backends.size());

  auto worker = [&](std::size_t i) {
    EngineResult r = backends[i]->check(deadline, &stop);
    if (r.verdict != ic3::Verdict::kUnknown) {
      // Trust-but-verify gate: the verdict only enters winner selection
      // once its certificate passes the independent checker.  A failure
      // quarantines this backend's answer and cancels nothing — the race
      // continues with the remaining backends.
      bool accept = true;
      if (options.certify) {
        std::string why;
        std::optional<cert::Certificate> c = cert::from_verdict(
            ts, r.verdict, r.invariant, r.trace, r.kind_k, r.kind_simple_path,
            options.property_index, &why);
        ++r.stats.num_cert_checks;
        if (c.has_value()) {
          const cert::CheckOutcome outcome =
              cert::check(ts, *c, options.seed + i + 1);
          if (!outcome.ok) {
            accept = false;
            why = outcome.reason;
          }
        } else {
          accept = false;
        }
        if (accept) {
          certificates[i] = std::move(c);
        } else {
          ++r.stats.num_cert_failures;
          quarantined[i] = 1;
          quarantine_reasons[i] = why;
          PILOT_WARN("portfolio: quarantined " << names[i] << " ("
                                               << ic3::to_string(r.verdict)
                                               << "): " << why);
          PILOT_TRACE_INSTANT("cert.quarantine");
        }
      }
      if (accept) {
        int expected = -1;
        if (winner.compare_exchange_strong(expected, static_cast<int>(i))) {
          stop.request_stop();
        }
      }
    }
    results[i] = std::move(r);
  };

  if (backends.size() == 1) {
    worker(0);  // degenerate portfolio: no threads needed
  } else {
    std::vector<std::thread> threads;
    threads.reserve(backends.size());
    for (std::size_t i = 0; i < backends.size(); ++i) {
      threads.emplace_back([&, i] {
        // Tag this worker so its log lines and trace track carry the
        // backend name (interleaved stderr stays attributable). The trace
        // stream is only registered when tracing is on — the ring is a
        // few MB per thread.
        logcfg::set_thread_tag(names[i]);
        if (obs::trace_enabled()) obs::name_current_thread(names[i]);
        worker(i);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  PortfolioResult out;
  const int win = winner.load();
  for (std::size_t i = 0; i < backends.size(); ++i) {
    BackendTiming timing;
    timing.name = names[i];
    timing.verdict = results[i].verdict;
    timing.seconds = results[i].seconds;
    timing.winner = static_cast<int>(i) == win;
    // Only cut-short runs count as cancelled; a backend that completed on
    // its own without a verdict (e.g. BMC exhausting its bound) did not
    // lose to the stop request.
    timing.cancelled = results[i].interrupted && stop.stop_requested();
    timing.lemmas_published = results[i].stats.num_exchange_published;
    timing.lemmas_imported = results[i].stats.num_exchange_imported;
    timing.lemmas_rejected = results[i].stats.num_exchange_rejected;
    timing.quarantined = quarantined[i] != 0;
    timing.quarantine_reason = quarantine_reasons[i];
    out.timings.push_back(std::move(timing));
  }
  if (hub != nullptr) out.exchange = hub->stats();
  if (win >= 0) {
    out.winner = names[static_cast<std::size_t>(win)];
    out.result = std::move(results[static_cast<std::size_t>(win)]);
    out.certificate = std::move(certificates[static_cast<std::size_t>(win)]);
    PILOT_INFO("portfolio: " << out.winner << " wins with "
                             << ic3::to_string(out.result.verdict) << " in "
                             << out.result.seconds << "s");
  } else {
    // No verdict anywhere: report the race's real wall-clock, not a
    // default-constructed 0.0, so budget-exhausted rows stay meaningful.
    out.result.seconds = race_timer.seconds();
    out.result.interrupted = stop.stop_requested();
  }
  return out;
}

}  // namespace pilot::engine
