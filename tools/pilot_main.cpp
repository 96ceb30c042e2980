/// \file pilot_main.cpp
/// `pilot` — the top-level command-line model checker built on pilot_core.
///
///   pilot [options] model.aag|model.aig        check an AIGER file
///   pilot --family FAMILY [options]            check a built-in circuit
///   pilot --family FAMILY --family-out out.aag write the circuit, don't check
///   pilot serve --socket PATH [options]        Unix-socket verdict server
///   pilot submit --socket PATH file.aag ...    client for a running server
///
/// Engine selection: `--engine` picks a backend (or portfolio[:a+b+c] /
/// portfolio-x[:a+b+c] with lemma exchange); each repeatable
/// `--set key=value` adjusts one engine setting (ic3::ConfigPatch; the one
/// key is the strategy spec, e.g. `--set gen=dynamic:8,0.5`).
///
/// The verdict is printed as one line (SAFE / UNSAFE / UNKNOWN) on stdout;
/// diagnostics go to stderr.  With --witness, UNSAFE runs print the
/// counterexample in the AIGER/HWMCC witness format and SAFE runs print the
/// "0\nb<index>\n." certificate header.  Campaigns over several models
/// are `pilot-bench run`'s job.
///
/// Exit codes (HWMCC convention, shared with examples/aiger_check):
///   0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/parse/internal error,
///   4 = certification failure
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "corpus/results_db.hpp"
#include "engine/backend.hpp"
#include "engine/portfolio.hpp"
#include "ic3/generalizer.hpp"
#include "ic3/witness.hpp"
#include "obs/trace.hpp"
#include "serve/advisor.hpp"
#include "serve/server.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

using namespace pilot;

namespace {

using FamilyFn = circuits::CircuitCase (*)(std::int64_t n);

/// Built-in circuits from circuits/families, each scaled by a single
/// `--family-n` knob (0 → the family's default size).  SAFE and UNSAFE
/// variants are both exposed so smoke tests can exercise every verdict
/// without input files.
const std::map<std::string, FamilyFn>& family_registry() {
  static const std::map<std::string, FamilyFn> kRegistry = {
      {"counter-unsafe",
       [](std::int64_t n) {
         const std::uint64_t target = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::counter_unsafe(6, target);
       }},
      {"counter-wrap-safe",
       [](std::int64_t n) {
         const std::uint64_t limit = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::counter_wrap_safe(6, limit, limit + 5);
       }},
      {"lock-unsafe",
       [](std::int64_t n) {
         const std::size_t stages = n > 0 ? static_cast<std::size_t>(n) : 6;
         std::vector<std::uint64_t> digits;
         for (std::size_t i = 0; i < stages; ++i) digits.push_back(i % 4);
         return circuits::combination_lock_unsafe(2, digits);
       }},
      {"lock-safe",
       [](std::int64_t n) {
         const std::size_t stages = n > 0 ? static_cast<std::size_t>(n) : 6;
         std::vector<std::uint64_t> digits;
         for (std::size_t i = 0; i < stages; ++i) digits.push_back(i % 4);
         return circuits::combination_lock_safe(2, digits, stages / 2);
       }},
      {"token-ring-safe",
       [](std::int64_t n) {
         return circuits::token_ring_safe(n > 0 ? static_cast<std::size_t>(n)
                                                : 6);
       }},
      {"token-ring-unsafe",
       [](std::int64_t n) {
         return circuits::token_ring_unsafe(n > 0 ? static_cast<std::size_t>(n)
                                                  : 6);
       }},
      {"shift-register-unsafe",
       [](std::int64_t n) {
         return circuits::shift_register(
             n > 0 ? static_cast<std::size_t>(n) : 8, false);
       }},
      {"shift-register-safe",
       [](std::int64_t n) {
         return circuits::shift_register(
             n > 0 ? static_cast<std::size_t>(n) : 8, true);
       }},
      {"fifo-safe",
       [](std::int64_t n) {
         const std::uint64_t cap = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::fifo_safe(6, cap);
       }},
      {"fifo-unsafe",
       [](std::int64_t n) {
         const std::uint64_t cap = n > 0 ? static_cast<std::uint64_t>(n) : 10;
         return circuits::fifo_unsafe(6, cap);
       }},
      {"mutex-safe", [](std::int64_t) { return circuits::mutex_safe(); }},
      {"mutex-unsafe", [](std::int64_t) { return circuits::mutex_unsafe(); }},
  };
  return kRegistry;
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : family_registry()) names.push_back(name);
  return names;
}

/// `pilot certify <model> <certificate>` — the independent checker.
/// argv[0] is "certify" (main() shifts the program name off).
int run_certify(int argc, char** argv) {
  std::int64_t seed = 0;
  std::string log_level;
  OptionParser parser(
      "pilot certify — independently re-check a saved verdict certificate "
      "against its model.\n"
      "usage: pilot certify <model.aag|model.aig> <certificate>\n"
      "The checker deliberately uses a different solver configuration than "
      "the engines (trail reuse off, fresh variable order), so a bug in the "
      "optimized hot path cannot vouch for itself.\n"
      "exit codes: 0 = certificate valid, 3 = usage/parse error, "
      "4 = certificate rejected");
  parser.add_int("seed", &seed, "checker randomization seed");
  parser.add_choice("log-level", &log_level,
                    {"silent", "error", "warn", "info", "debug"},
                    "log verbosity (overrides the PILOT_LOG environment "
                    "variable)");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;
  logcfg::init_from_env();
  if (!log_level.empty()) {
    logcfg::set_level(*logcfg::level_from_string(log_level));
  }

  if (parser.positional().size() != 2) {
    std::fprintf(stderr,
                 "pilot certify: expected exactly 2 arguments "
                 "(<model.aag|model.aig> <certificate>), got %zu\n"
                 "(try `pilot certify --help`)\n",
                 parser.positional().size());
    return 3;
  }
  const std::string& model_path = parser.positional()[0];
  const std::string& cert_path = parser.positional()[1];

  try {
    const aig::Aig model = aig::read_aiger_file(model_path);
    std::string error;
    const std::optional<cert::Certificate> c = cert::load(cert_path, &error);
    if (!c.has_value()) {
      std::fprintf(stderr, "pilot certify: %s: %s\n", cert_path.c_str(),
                   error.c_str());
      return 3;
    }
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(model, c->property_index);
    const cert::CheckOutcome outcome =
        cert::check(ts, *c, static_cast<std::uint64_t>(seed));
    if (!outcome.ok) {
      std::printf("REJECTED\n");
      std::fprintf(stderr, "[pilot] certificate (%s) rejected: %s\n",
                   cert::to_string(c->kind), outcome.reason.c_str());
      return 4;
    }
    std::printf("CERTIFIED\n");
    std::fprintf(stderr,
                 "[pilot] certificate (%s, property %zu) independently "
                 "checked against %s\n",
                 cert::to_string(c->kind), c->property_index,
                 model_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot certify: %s\n", e.what());
    return 3;
  }
}

// --- serve / submit ---------------------------------------------------------

/// SIGTERM/SIGINT trampoline for `pilot serve`: signal handlers may only
/// touch a sig_atomic_t flag, which the main thread polls and converts into
/// Server::request_stop() (the graceful drain).
volatile std::sig_atomic_t g_serve_stop = 0;
void handle_stop_signal(int) { g_serve_stop = 1; }

/// `pilot serve --socket PATH` — the Unix-socket verdict server.
/// argv[0] is "serve" (main() shifts the program name off).
int run_serve(int argc, char** argv) {
  std::string socket_path;
  std::string engine = "portfolio";
  std::int64_t budget_ms = 10000;
  std::int64_t seed = 0;
  std::int64_t queue = 64;
  std::int64_t jobs = 0;
  std::string cache_path;
  std::string history_path;
  std::string log_level;
  OptionParser parser(
      "pilot serve — long-running verdict server on a Unix stream socket.\n"
      "usage: pilot serve --socket PATH [options]\n"
      "One request per connection: 'ping', 'stats', 'stop', or\n"
      "'check <nbytes>' followed by <nbytes> of AIGER text (see `pilot "
      "submit`).\nEvery check runs the cache → advisor → engine pipeline; "
      "SIGTERM or a 'stop' request drains queued jobs before exiting.");
  parser.add_string("socket", &socket_path,
                    "filesystem path to listen on (required; a stale socket "
                    "file is replaced)");
  parser.add_string("engine", &engine,
                    "engine spec for cache misses (default portfolio)");
  parser.add_int("budget-ms", &budget_ms, "per-request wall-clock budget");
  parser.add_int("seed", &seed, "engine randomization seed");
  parser.add_int("queue", &queue,
                 "bounded request-queue capacity; a full queue answers "
                 "'error queue full' immediately");
  parser.add_int("jobs", &jobs,
                 "worker threads (0 = hardware concurrency)");
  parser.add_string("cache", &cache_path,
                    "JSONL verdict cache: serve revalidated hits, store new "
                    "certified verdicts (created when missing)");
  parser.add_string("history", &history_path,
                    "results db mined for engine/budget advice on cache "
                    "misses");
  parser.add_choice("log-level", &log_level,
                    {"silent", "error", "warn", "info", "debug"},
                    "log verbosity (overrides the PILOT_LOG environment "
                    "variable)");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;
  logcfg::init_from_env();
  if (!log_level.empty()) {
    logcfg::set_level(*logcfg::level_from_string(log_level));
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "pilot serve: --socket is required\n");
    return 3;
  }

  try {
    std::optional<serve::VerdictCache> cache;
    if (!cache_path.empty()) {
      cache.emplace(cache_path);
      std::fprintf(stderr, "[pilot] cache %s: %zu entries loaded\n",
                   cache_path.c_str(), cache->size());
    }
    serve::Advisor advisor;
    if (!history_path.empty()) {
      advisor = serve::Advisor::from_file(history_path);
      std::fprintf(stderr, "[pilot] advisor: %zu history rows from %s\n",
                   advisor.size(), history_path.c_str());
    }

    serve::ServerOptions so;
    so.socket_path = socket_path;
    so.engine_spec = engine;
    so.budget_ms = budget_ms;
    so.seed = static_cast<std::uint64_t>(seed);
    so.queue_capacity = queue > 0 ? static_cast<std::size_t>(queue) : 64;
    so.workers = jobs > 0 ? static_cast<std::size_t>(jobs) : 0;
    so.cache = cache.has_value() ? &*cache : nullptr;
    so.advisor = history_path.empty() ? nullptr : &advisor;

    serve::Server server(std::move(so));
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "pilot serve: %s\n", error.c_str());
      return 3;
    }
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    std::fprintf(stderr,
                 "[pilot] serving on %s (engine %s, budget %lld ms)\n",
                 socket_path.c_str(), engine.c_str(),
                 static_cast<long long>(budget_ms));
    while (g_serve_stop == 0 && !server.draining()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.request_stop();
    server.wait();
    const serve::ServerStats st = server.stats();
    std::fprintf(stderr,
                 "[pilot] drained: accepted=%llu served=%llu errors=%llu "
                 "rejected_queue_full=%llu\n",
                 static_cast<unsigned long long>(st.accepted),
                 static_cast<unsigned long long>(st.served),
                 static_cast<unsigned long long>(st.errors),
                 static_cast<unsigned long long>(st.rejected_queue_full));
    if (cache.has_value()) {
      std::fprintf(stderr, "[pilot] cache: %s\n", cache->summary().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot serve: %s\n", e.what());
    return 3;
  }
}

/// `pilot submit` — thin client for a running `pilot serve`.
int run_submit(int argc, char** argv) {
  std::string socket_path;
  std::string cmd;
  OptionParser parser(
      "pilot submit — send AIGER files (or a control command) to a running "
      "`pilot serve`.\n"
      "usage: pilot submit --socket PATH <model.aag|model.aig>...\n"
      "   or: pilot submit --socket PATH --cmd ping|stats|stop\n"
      "Each file is one 'check' request; the server's one-line response is "
      "printed per file.\nexit codes (single file): 0 = SAFE, 1 = UNSAFE, "
      "2 = UNKNOWN, 3 = error; several files: 0 unless any request failed");
  parser.add_string("socket", &socket_path,
                    "socket path of the running server (required)");
  parser.add_choice("cmd", &cmd, {"ping", "stats", "stop"},
                    "send a control command instead of checking files");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;
  if (socket_path.empty()) {
    std::fprintf(stderr, "pilot submit: --socket is required\n");
    return 3;
  }

  if (!cmd.empty()) {
    std::string error;
    const std::optional<std::string> resp =
        serve::client_request(socket_path, cmd + "\n", &error);
    if (!resp.has_value()) {
      std::fprintf(stderr, "pilot submit: %s\n", error.c_str());
      return 3;
    }
    std::fputs(resp->c_str(), stdout);
    return resp->rfind("ok", 0) == 0 ? 0 : 3;
  }

  if (parser.positional().empty()) {
    std::fprintf(stderr,
                 "usage: pilot submit --socket PATH <model.aag>...\n"
                 "(try `pilot submit --help`)\n");
    return 3;
  }
  int single_exit = 3;
  bool any_failed = false;
  for (const std::string& path : parser.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "pilot submit: cannot open %s\n", path.c_str());
      any_failed = true;
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<std::string> resp = serve::client_request(
        socket_path, serve::make_check_request(text.str()), &error);
    if (!resp.has_value()) {
      std::fprintf(stderr, "pilot submit: %s: %s\n", path.c_str(),
                   error.c_str());
      any_failed = true;
      continue;
    }
    std::printf("%s: %s", path.c_str(), resp->c_str());
    if (resp->rfind("ok", 0) != 0) {
      any_failed = true;
    } else if (resp->find("verdict=SAFE") != std::string::npos) {
      single_exit = 0;
    } else if (resp->find("verdict=UNSAFE") != std::string::npos) {
      single_exit = 1;
    } else {
      single_exit = 2;
    }
  }
  if (parser.positional().size() == 1) return any_failed ? 3 : single_exit;
  return any_failed ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch before flag parsing: `pilot certify <aig> <cert>`,
  // `pilot serve --socket PATH`, `pilot submit --socket PATH file.aag`.
  if (argc > 1 && std::string(argv[1]) == "certify") {
    return run_certify(argc - 1, argv + 1);
  }
  if (argc > 1 && std::string(argv[1]) == "serve") {
    return run_serve(argc - 1, argv + 1);
  }
  if (argc > 1 && std::string(argv[1]) == "submit") {
    return run_submit(argc - 1, argv + 1);
  }

  std::string engine = "ic3-ctg-pl";
  std::vector<std::string> set_items;
  std::string cache_path;
  bool exchange = false;
  std::int64_t budget_ms = 0;
  std::int64_t seed = 0;
  std::int64_t property = 0;
  bool verify_witness = true;
  bool show_stats = false;
  bool print_witness = false;
  bool list_families = false;
  std::string family;
  std::string family_out;
  std::string trace_path;
  double progress_secs = 0.0;
  std::string stats_json_path;
  std::string log_level;

  OptionParser parser(
      "pilot — SAT-based safety model checker: IC3 with lemma prediction "
      "from counterexamples to propagation (DAC'24).\n"
      "usage: pilot [options] <model.aag|model.aig>\n"
      "   or: pilot --family FAMILY [--family-out FILE] [options]\n"
      "   or: pilot certify <model.aag|model.aig> <certificate>\n"
      "   or: pilot serve --socket PATH [options]\n"
      "   or: pilot submit --socket PATH <model.aag>...\n"
      "exit codes: 0 = SAFE, 1 = UNSAFE, 2 = UNKNOWN, 3 = usage/internal "
      "error, 4 = certification failure");
  std::string engine_help = "engine configuration (-pl = predicted lemmas):";
  for (const std::string& name : engine::backend_names()) {
    engine_help += " " + name;
  }
  engine_help +=
      "; or portfolio[:a+b+c] to race several backends (first verdict "
      "wins), portfolio-x[:a+b+c] to race with lemma exchange";
  parser.add_string("engine", &engine, engine_help);
  std::string set_help = "IC3-family engine setting key=value (later wins); keys:";
  for (const std::string& key : ic3::ConfigPatch::keys()) {
    set_help += " " + key;
  }
  set_help += "; gen takes a strategy:";
  for (const std::string& name : ic3::gen_strategy_names()) {
    set_help += " " + name;
  }
  set_help += " (predict[:down|ctg|cav23], dynamic[:window[,threshold]])";
  parser.add_list("set", &set_items, set_help);
  parser.add_string("cache", &cache_path,
                    "JSONL verdict cache keyed by the canonical AIG hash: "
                    "serve a hit only after its stored certificate "
                    "re-checks, store new certified verdicts (created when "
                    "missing)");
  parser.add_flag("exchange", &exchange,
                  "portfolio runs: share validated lemmas between the "
                  "racing IC3 backends (same as the portfolio-x spec)");
  parser.add_int("budget-ms", &budget_ms, "wall-clock budget, 0 = unlimited");
  parser.add_int("seed", &seed, "engine randomization seed");
  parser.add_int("property", &property, "property index (bad array / output)");
  parser.add_flag("verify-witness", &verify_witness,
                  "re-check the produced certificate (default on; "
                  "--no-verify-witness to skip)");
  std::string certify_out;
  parser.add_string("certify", &certify_out,
                    "emit the verdict's certificate to this path, "
                    "independently re-checked (exit 4 on failure); "
                    "invariant certificates also write a <path>.aag "
                    "certificate circuit");
  parser.add_flag("stats", &show_stats, "print engine statistics to stderr");
  parser.add_flag("witness", &print_witness,
                  "print the certificate in AIGER/HWMCC witness format");
  parser.add_choice("family", &family, family_names(),
                    "check a built-in circuit family instead of a file");
  std::int64_t family_n = 0;
  parser.add_int("family-n", &family_n,
                 "size parameter for --family (0 = default)");
  parser.add_string("family-out", &family_out,
                    "write the generated circuit as AIGER to this path and "
                    "exit without checking");
  parser.add_flag("list-families", &list_families,
                  "list built-in circuit families");
  parser.add_string("trace", &trace_path,
                    "write a Chrome trace-event JSON of the run to this "
                    "path (open in Perfetto / chrome://tracing)");
  parser.add_opt_double("progress", &progress_secs, 2.0,
                        "print a live-progress heartbeat to stderr every "
                        "<double> seconds (bare --progress = every 2s); "
                        "portfolio runs print one line per backend");
  parser.add_string("stats-json", &stats_json_path,
                    "write the run's verdict, timing, and engine statistics "
                    "(including per-phase times) as JSON to this path");
  parser.add_choice("log-level", &log_level,
                    {"silent", "error", "warn", "info", "debug"},
                    "log verbosity (overrides the PILOT_LOG environment "
                    "variable)");

  // OptionParser::parse returns false for both --help and errors; handle
  // --help up front so `pilot --help` exits 0.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
  }
  if (!parser.parse(argc, argv)) return 3;

  // PILOT_LOG from the environment first; an explicit --log-level wins.
  logcfg::init_from_env();
  if (!log_level.empty()) {
    logcfg::set_level(*logcfg::level_from_string(log_level));
  }
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  if (list_families) {
    for (const auto& name : family_names()) std::printf("%s\n", name.c_str());
    return 0;
  }

  // Exports the (process-global) trace once the run is over.
  const auto dump_trace = [&trace_path]() {
    if (trace_path.empty()) return true;
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "pilot: cannot write trace to %s\n",
                   trace_path.c_str());
      return false;
    }
    std::fprintf(stderr,
                 "[pilot] trace written to %s (open in Perfetto or "
                 "chrome://tracing)\n",
                 trace_path.c_str());
    return true;
  };

  try {
    // Validate the settings before any work: an unknown key or a bad value
    // names the offending item and lists the valid keys.
    const ic3::ConfigPatch patch = ic3::ConfigPatch::parse(set_items);

    // --exchange only changes portfolio races; say so instead of silently
    // running a single engine the user believes is sharing lemmas.
    if (exchange && !engine::match_portfolio_spec(engine).has_value()) {
      std::fprintf(stderr,
                   "pilot: --exchange has no effect on single engine '%s'; "
                   "use --engine portfolio[:a+b+c] or portfolio-x[:a+b+c]\n",
                   engine.c_str());
    }

    if (parser.positional().size() > 1) {
      std::fprintf(stderr,
                   "pilot: checks one model (got %zu); run a campaign over "
                   "several with `pilot-bench run --corpus <dir>`\n",
                   parser.positional().size());
      return 3;
    }

    aig::Aig model;
    std::string source;
    if (!family.empty()) {
      if (!parser.positional().empty()) {
        std::fprintf(stderr,
                     "pilot: --family and a model file are exclusive\n");
        return 3;
      }
      const circuits::CircuitCase c = family_registry().at(family)(family_n);
      model = c.aig;
      source = "family:" + c.name;
      if (!family_out.empty()) {
        aig::write_aiger_file(model, family_out);
        std::fprintf(stderr, "pilot: wrote %s (%s, expected %s)\n",
                     family_out.c_str(), c.name.c_str(),
                     c.expected_safe ? "SAFE" : "UNSAFE");
        return 0;
      }
    } else {
      if (!family_out.empty()) {
        std::fprintf(stderr, "pilot: --family-out requires --family\n");
        return 3;
      }
      if (parser.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: pilot [options] <model.aag|model.aig>\n"
                     "(try `pilot --help`)\n");
        return 3;
      }
      source = parser.positional()[0];
      model = aig::read_aiger_file(source);
    }

    std::fprintf(stderr,
                 "[pilot] %s: %zu inputs, %zu latches, %zu ands, %zu bad, "
                 "%zu constraints\n",
                 source.c_str(), model.num_inputs(), model.num_latches(),
                 model.num_ands(), model.bads().size(),
                 model.constraints().size());

    check::CheckOptions opts;
    opts.engine_spec = engine;  // resolved against the backend registry
    opts.patch = patch;
    opts.share_lemmas = exchange;
    opts.budget_ms = budget_ms;
    opts.seed = static_cast<std::uint64_t>(seed);
    opts.property_index = static_cast<std::size_t>(property);
    // --certify and --cache need a checked certificate even with
    // --no-verify-witness; check_ts checks it once for all three.
    opts.verify_witness =
        verify_witness || !certify_out.empty() || !cache_path.empty();
    opts.progress_interval = progress_secs;
    // Build the transition system once; witness rendering reuses it.
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(model, opts.property_index);

    std::optional<serve::VerdictCache> cache;
    std::string model_hash;
    if (!cache_path.empty()) {
      cache.emplace(cache_path);
      model_hash = aig::canonical_hash_hex(model);
      const std::optional<serve::CacheEntry> hit =
          cache->lookup(model_hash, ts, opts.seed);
      if (hit.has_value()) {
        std::printf("%s\n", ic3::to_string(hit->verdict));
        if (print_witness) {
          if (hit->verdict == ic3::Verdict::kSafe) {
            std::printf("0\nb%zu\n.\n", opts.property_index);
          } else {
            std::string why;
            const std::optional<cert::Certificate> c =
                cert::parse(hit->cert_text, &why);
            if (c.has_value() &&
                c->kind == cert::Certificate::Kind::kWitness) {
              std::fputs(c->witness.c_str(), stdout);
            }
          }
        }
        std::fprintf(stderr,
                     "[pilot] cache hit: solved by %s in %.3fs "
                     "(certificate revalidated against this model)\n",
                     hit->engine.c_str(), hit->seconds);
        if (show_stats) {
          std::fprintf(stderr, "[pilot] cache: %s\n",
                       cache->summary().c_str());
        }
        if (!dump_trace()) return 3;
        switch (hit->verdict) {
          case ic3::Verdict::kSafe: return 0;
          case ic3::Verdict::kUnsafe: return 1;
          default: return 2;
        }
      }
    }

    const check::CheckResult r = check::check_ts(ts, opts);

    std::printf("%s\n", ic3::to_string(r.verdict));
    if (print_witness) {
      if (r.verdict == ic3::Verdict::kUnsafe && r.trace.has_value()) {
        std::fputs(
            ic3::to_aiger_witness(ts, *r.trace, opts.property_index).c_str(),
            stdout);
      } else if (r.verdict == ic3::Verdict::kSafe) {
        std::printf("0\nb%zu\n.\n", opts.property_index);
      }
    }
    std::fprintf(stderr, "[pilot] %.3fs, frames=%zu%s\n", r.seconds, r.frames,
                 r.witness_checked ? ", witness verified" : "");
    if (!r.backend_timings.empty()) {
      std::fprintf(stderr, "[pilot] portfolio winner: %s\n",
                   r.winner.empty() ? "(none)" : r.winner.c_str());
      for (const engine::BackendTiming& t : r.backend_timings) {
        std::fprintf(stderr, "[pilot]   %-12s %-7s %8.3fs%s\n", t.name.c_str(),
                     ic3::to_string(t.verdict), t.seconds,
                     t.winner ? "  << winner" : (t.cancelled ? "  (cancelled)"
                                                             : ""));
        if (t.lemmas_published + t.lemmas_imported + t.lemmas_rejected > 0) {
          std::fprintf(stderr,
                       "[pilot]     exchange: published=%llu imported=%llu "
                       "rejected=%llu\n",
                       static_cast<unsigned long long>(t.lemmas_published),
                       static_cast<unsigned long long>(t.lemmas_imported),
                       static_cast<unsigned long long>(t.lemmas_rejected));
        }
      }
      if (r.exchange.published + r.exchange.deduped + r.exchange.delivered >
          0) {
        std::fprintf(stderr,
                     "[pilot] exchange hub: published=%llu deduped=%llu "
                     "delivered=%llu\n",
                     static_cast<unsigned long long>(r.exchange.published),
                     static_cast<unsigned long long>(r.exchange.deduped),
                     static_cast<unsigned long long>(r.exchange.delivered));
      }
    }
    // A produced-but-invalid witness/invariant is a certification failure
    // (exit 4), distinct from usage/internal errors (exit 3).
    if (verify_witness && !r.witness_error.empty()) {
      std::fprintf(stderr, "[pilot] WITNESS ERROR: %s\n",
                   r.witness_error.c_str());
      return 4;
    }
    if (!certify_out.empty()) {
      if (r.verdict == ic3::Verdict::kUnknown) {
        std::fprintf(stderr,
                     "[pilot] no certificate written: verdict is UNKNOWN\n");
      } else if (!r.witness_checked) {
        std::fprintf(stderr, "[pilot] CERTIFICATION FAILED: %s\n",
                     r.witness_error.c_str());
        return 4;
      } else {
        const cert::Certificate& c = *r.certificate;
        if (!cert::save(c, certify_out)) {
          std::fprintf(stderr, "pilot: cannot write certificate to %s\n",
                       certify_out.c_str());
          return 3;
        }
        std::fprintf(stderr,
                     "[pilot] certificate (%s) independently checked, "
                     "written to %s\n",
                     cert::to_string(c.kind), certify_out.c_str());
        if (c.kind == cert::Certificate::Kind::kInvariant) {
          const std::string circuit_path = certify_out + ".aag";
          aig::write_aiger_file(cert::certificate_circuit(ts, c),
                                circuit_path);
          std::fprintf(stderr,
                       "[pilot] certificate circuit written to %s (3 bad "
                       "outputs; all must be unsatisfiable)\n",
                       circuit_path.c_str());
        }
      }
    }
    if (cache.has_value() && r.verdict != ic3::Verdict::kUnknown) {
      if (r.witness_checked) {
        serve::CacheEntry entry;
        entry.hash = model_hash;
        entry.verdict = r.verdict;
        entry.engine = engine;
        entry.seconds = r.seconds;
        entry.frames = r.frames;
        entry.cert_text = cert::to_text(*r.certificate);
        entry.case_name = source;
        entry.timestamp = corpus::now_utc_iso8601();
        cache->store(entry);
      } else {
        // Not cacheable: the verdict itself is still reported normally.
        std::fprintf(stderr, "[pilot] verdict not cached: %s\n",
                     r.witness_error.c_str());
      }
    }
    if (show_stats) {
      std::fprintf(stderr, "[pilot] %s\n", r.stats.summary().c_str());
      if (!r.stats.phases.empty()) {
        std::fputs(r.stats.phases.table(r.stats.time_total).c_str(), stderr);
      }
      if (cache.has_value()) {
        std::fprintf(stderr, "[pilot] cache: %s\n",
                     cache->summary().c_str());
      }
    }
    if (!dump_trace()) return 3;
    if (!stats_json_path.empty()) {
      json::Object o;
      o["engine"] = engine;
      o["verdict"] = ic3::to_string(r.verdict);
      o["seconds"] = r.seconds;
      o["frames"] = r.frames;
      if (!r.winner.empty()) o["winner"] = r.winner;
      o["stats"] = corpus::stats_to_json(r.stats);
      const std::string text = json::Value(std::move(o)).dump() + "\n";
      std::FILE* f = std::fopen(stats_json_path.c_str(), "wb");
      const bool wrote =
          f != nullptr &&
          std::fwrite(text.data(), 1, text.size(), f) == text.size();
      const bool closed = f != nullptr && std::fclose(f) == 0;
      if (!wrote || !closed) {
        std::fprintf(stderr, "pilot: cannot write stats to %s\n",
                     stats_json_path.c_str());
        return 3;
      }
      std::fprintf(stderr, "[pilot] stats written to %s\n",
                   stats_json_path.c_str());
    }
    switch (r.verdict) {
      case ic3::Verdict::kSafe: return 0;
      case ic3::Verdict::kUnsafe: return 1;
      default: return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot: %s\n", e.what());
    return 3;
  }
}
