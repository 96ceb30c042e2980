/// perfbench-harness — one workload of the repository benchmark, in one
/// process.  `perfbench/run.py` builds this binary and calls it; see
/// perfbench/README.md for the workloads and every metric.
///
///   perfbench-harness --workload NAME --seed N --seconds S --trace 0|1
///                     [--spans FILE] [--scratch DIR]
///
/// The seed drives a draw of `circuits::` family parameters and the case
/// order; the program under test only ever sees the generated circuits, as
/// AIGER text.  The last stdout line is one JSON object: the result keys
/// (`correct`, `attempted`, `failed`, `metrics`) plus `counts` (the exact
/// per-pass work counters run.py compares across runs), `flags` (budget
/// margin and dominance guard hits) and `notes`.
///
/// With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
/// timed units alternate between untraced and traced, spans are recorded
/// around every call into the `aig`, `ts`, `check`, `cert` and `serve`
/// modules, and the metrics are the per-layer ones plus the tracing
/// overhead (median traced unit minus median untraced unit).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <unistd.h>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger_io.hpp"
#include "cert/certificate.hpp"
#include "check/checker.hpp"
#include "circuits/families.hpp"
#include "serve/server.hpp"
#include "serve/verdict_cache.hpp"
#include "ts/transition_system.hpp"

namespace {

using namespace pilot;
using obs::Phase;
using Clock = std::chrono::steady_clock;

// Every (case, engine) pair and every request gets this budget.  The guard
// below flags any pair that used more than kMarginShare of it, and any case
// whose share of a pass exceeded kDominanceCap.
constexpr std::int64_t kBudgetMs = 10000;
constexpr double kMarginShare = 0.10;
constexpr double kDominanceCap = 0.20;
// Proving workloads prepare kDraws draws of circuits in set-up; pass i
// runs draw i mod kDraws.  Set-up runs kSetupReps times before the timed
// phase (proving workloads: and once after every pass); setup_s is the
// median.
constexpr std::size_t kDraws = 8;
constexpr int kSetupReps = 5;
// serve-mixed: requests per round, one in kWriteEvery is a first-seen
// circuit, one in kVariantEvery reads is a comment/symbol variant.
constexpr std::size_t kRoundRequests = 2000;
constexpr std::size_t kWriteEvery = 20;
constexpr std::size_t kVariantEvery = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kServerWorkers = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ----- seeded draw ------------------------------------------------------------

/// splitmix64: the benchmark's own generator, independent of the program's.
class Draw {
 public:
  /// Nearby seeds give unrelated streams: the state starts from the mixed
  /// seed, not the seed itself.
  explicit Draw(std::uint64_t seed) : state_(seed) { state_ = next(); }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  /// `k` distinct values from [lo, hi], in draw order.
  std::vector<std::uint64_t> distinct(std::uint64_t lo, std::uint64_t hi,
                                      std::size_t k) {
    std::vector<std::uint64_t> out;
    while (out.size() < k) {
      const std::uint64_t v = range(lo, hi);
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
    return out;
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

// ----- spans -------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the same thread's spans, -1 = root
  std::int64_t id;      // pair or request id, -1 = none
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::int32_t open = -1;
};

std::atomic<bool> g_tracing{false};
std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by the mutex

ThreadSpans& thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mutex);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
  }
  return *mine;
}

/// Records one span while tracing is on; free otherwise.
class SpanScope {
 public:
  SpanScope(const char* name, std::int64_t id) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    spans_ = &thread_spans();
    index_ = static_cast<std::int32_t>(spans_->spans.size());
    spans_->spans.push_back({name, now_ns(), 0, spans_->open, id});
    spans_->open = index_;
  }
  ~SpanScope() {
    if (spans_ == nullptr) return;
    Span& s = spans_->spans[static_cast<std::size_t>(index_)];
    s.end_ns = now_ns();
    spans_->open = s.parent;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadSpans* spans_ = nullptr;
  std::int32_t index_ = -1;
};

template <class F>
auto span(const char* name, std::int64_t id, F&& f) {
  SpanScope scope(name, id);
  return f();
}

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per-name totals over every recorded span; self time is a span's length
/// minus the time its child spans cover (children of one thread are
/// sequential, so their lengths add).
std::map<std::string, SpanTotals> span_totals() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    std::vector<std::int64_t> child_ns(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      SpanTotals& agg = out[s.name];
      ++agg.count;
      agg.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      agg.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                               child_ns[i]);
    }
  }
  return out;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "thread\tindex\tname\tstart_ns\tend_ns\tparent\tid\n";
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (std::size_t t = 0; t < g_threads.size(); ++t) {
    const auto& spans = g_threads[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.parent << '\t' << s.id << '\n';
    }
  }
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (auto& t : g_threads) t->spans.clear();
}

// ----- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample (the maximum when there are fewer than 11).
double tail(std::vector<double> v, double* percentile) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n >= 11 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return v[i];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Engine-layer counters summed over a set of check results.
struct Totals {
  std::uint64_t solves = 0, lemmas = 0, obligations = 0;
  std::uint64_t push_queries = 0, push_successes = 0;
  std::uint64_t mic_queries = 0, mic_drops = 0;
  std::uint64_t gens = 0, predict_queries = 0, predict_hits = 0;
  std::uint64_t failed_parents = 0;
  std::uint64_t filter_checks = 0, filter_saved = 0;
  std::uint64_t batch_solves = 0, batch_answers = 0;
  std::uint64_t propagations = 0, conflicts = 0, trail_reuse = 0;
  std::uint64_t probe_failed = 0, scc_merged = 0, frames = 0;
  double engine_s = 0.0;
  obs::PhaseProfile phases;

  void add(const check::CheckResult& r, bool unrolls) {
    const ic3::Ic3Stats& s = r.stats;
    solves += s.sat_solve_calls;
    lemmas += s.num_lemmas;
    obligations += s.num_obligations;
    push_queries += s.num_push_queries;
    push_successes += s.num_push_successes;
    mic_queries += s.num_mic_queries;
    mic_drops += s.num_mic_drops;
    gens += s.num_generalizations;
    predict_queries += s.num_prediction_queries;
    predict_hits += s.num_successful_predictions;
    failed_parents += s.num_found_failed_parents;
    filter_checks += s.num_filter_checks;
    filter_saved += s.num_filter_solves_saved;
    batch_solves += s.num_batched_drop_solves;
    batch_answers += s.num_batched_drop_answers;
    propagations += s.sat_propagations;
    conflicts += s.sat_conflicts;
    trail_reuse += s.sat_trail_reuse_hits;
    probe_failed += s.sat_probe_failed_literals;
    scc_merged += s.sat_scc_merged_vars;
    if (unrolls) frames += r.frames;
    engine_s += r.seconds;
    phases += s.phases;
  }

  void add(const Totals& o) {
    solves += o.solves;
    lemmas += o.lemmas;
    obligations += o.obligations;
    push_queries += o.push_queries;
    push_successes += o.push_successes;
    mic_queries += o.mic_queries;
    mic_drops += o.mic_drops;
    gens += o.gens;
    predict_queries += o.predict_queries;
    predict_hits += o.predict_hits;
    failed_parents += o.failed_parents;
    filter_checks += o.filter_checks;
    filter_saved += o.filter_saved;
    batch_solves += o.batch_solves;
    batch_answers += o.batch_answers;
    propagations += o.propagations;
    conflicts += o.conflicts;
    trail_reuse += o.trail_reuse;
    probe_failed += o.probe_failed;
    scc_merged += o.scc_merged;
    frames += o.frames;
    engine_s += o.engine_s;
    phases += o.phases;
  }

  /// The counters that must repeat exactly for one commit and seed.
  [[nodiscard]] std::map<std::string, std::uint64_t> exact() const {
    return {{"sat.solves", solves},
            {"ic3.lemmas", lemmas},
            {"ic3.push_queries", push_queries},
            {"ic3.mic_queries", mic_queries},
            {"ic3.predict.queries", predict_queries}};
  }
};

// ----- output --------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Exact counters of each draw (proving) or of the warm-up (serve-mixed).
  std::vector<std::map<std::string, std::uint64_t>> counts;
  std::vector<std::string> flags;
  std::vector<std::pair<std::string, double>> notes;
  std::vector<std::string> pairs;  // "case engine", in run order

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const Report& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    o << (i > 0 ? ", " : "") << json_string(name) << ": {\"value\": "
      << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  o << "}, \"counts\": [";
  for (std::size_t k = 0; k < r.counts.size(); ++k) {
    o << (k > 0 ? ", " : "") << "{";
    std::size_t i = 0;
    for (const auto& [name, v] : r.counts[k]) {
      o << (i++ > 0 ? ", " : "") << json_string(name) << ": " << v;
    }
    o << "}";
  }
  o << "], \"flags\": [";
  for (std::size_t k = 0; k < r.flags.size(); ++k) {
    o << (k > 0 ? ", " : "") << json_string(r.flags[k]);
  }
  o << "], \"pairs\": [";
  for (std::size_t k = 0; k < r.pairs.size(); ++k) {
    o << (k > 0 ? ", " : "") << json_string(r.pairs[k]);
  }
  o << "], \"notes\": {";
  for (std::size_t k = 0; k < r.notes.size(); ++k) {
    o << (k > 0 ? ", " : "") << json_string(r.notes[k].first) << ": "
      << json_number(r.notes[k].second);
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

// ----- circuits -------------------------------------------------------------------

/// One generated circuit as the program sees it, plus what the benchmark
/// knows about it by construction.
struct Case {
  std::string name;
  bool expected_safe = true;
  int cex_length = -1;
  std::vector<std::string> engines;
  std::string aiger;
  std::string hash;
  std::unique_ptr<ts::TransitionSystem> ts;
};

struct Drawn {
  circuits::CircuitCase cc;
  std::vector<std::string> engines;
};

std::vector<std::uint64_t> lock_digits(Draw& d, std::size_t width,
                                       std::size_t count) {
  std::vector<std::uint64_t> digits;
  for (std::size_t i = 0; i < count; ++i) {
    digits.push_back(d.next() & ((1ULL << width) - 1));
  }
  return digits;
}

/// Family parameters of draw `k` of a run.  Each parameter slot starts at an
/// offset drawn from the seed and advances by one per draw, so the draws of
/// a run sweep every range evenly: runs with different seeds see the same
/// spread of circuit sizes, in a different order and with different lock
/// digits.  Without this, which sizes a seed happened to draw moved the
/// run's medians more than the host did.
class Params {
 public:
  Params(std::uint64_t seed, std::size_t k)
      : slots_(seed), k_(k), free_(seed * 1000003ULL + k) {}

  /// `m` distinct, evenly spaced values from [lo, hi].
  std::vector<std::uint64_t> pick(std::uint64_t lo, std::uint64_t hi,
                                  std::size_t m) {
    const std::uint64_t span = hi - lo + 1;
    const std::uint64_t base = slots_.next() % span + k_;
    std::vector<std::uint64_t> out;
    for (std::size_t j = 0; j < m; ++j) {
      out.push_back(lo + (base + j * span / m) % span);
    }
    return out;
  }
  std::uint64_t one(std::uint64_t lo, std::uint64_t hi) {
    return pick(lo, hi, 1).front();
  }
  /// Unstratified draws: lock digits and the pair order.
  Draw& free() { return free_; }

 private:
  Draw slots_;
  std::size_t k_;
  Draw free_;
};

constexpr std::uint64_t kTaps8 = 0b10001110;
constexpr std::uint64_t kTaps10 = 0b1000000100;
constexpr std::uint64_t kTaps12 = 0b100000101001;

/// ic3-push: push-dominated IC3 runs (propagate ≥ 50% of engine time).
std::vector<Drawn> draw_ic3_push(Params& p) {
  const std::vector<std::string> e = {"ic3-down", "ic3-down-pl"};
  std::vector<Drawn> out;
  const auto add = [&](circuits::CircuitCase c) {
    out.push_back({std::move(c), e});
  };
  add(circuits::counter_unsafe(6, p.one(56, 63)));
  for (const auto t : p.pick(110, 127, 2)) add(circuits::counter_unsafe(7, t));
  add(circuits::counter_unsafe(8, p.one(129, 140)));
  for (const auto w : p.pick(5, 7, 2)) add(circuits::gray_counter_safe(w));
  for (const auto w : p.pick(34, 44, 2)) add(circuits::twin_counters_safe(w));
  for (const auto n : p.pick(28, 40, 2)) add(circuits::token_ring_safe(n));
  for (const auto n : p.pick(28, 40, 2)) add(circuits::arbiter_safe(n));
  return out;
}

/// ic3-generalize: generalization-dominated ctgDown runs.
std::vector<Drawn> draw_ic3_generalize(Params& p) {
  const std::vector<std::string> e = {"ic3-ctg", "ic3-ctg-pl"};
  std::vector<Drawn> out;
  const auto add = [&](circuits::CircuitCase c) {
    out.push_back({std::move(c), e});
  };
  for (const auto s : p.pick(26, 32, 2)) {
    add(circuits::lfsr_unsafe(12, kTaps12, static_cast<int>(s)));
  }
  for (const auto s : p.pick(36, 44, 3)) {
    add(circuits::lfsr_unsafe(10, kTaps10, static_cast<int>(s)));
  }
  for (const auto s : p.pick(24, 32, 2)) {
    add(circuits::lfsr_unsafe(8, kTaps8, static_cast<int>(s)));
  }
  for (const auto c : p.pick(90, 110, 2)) add(circuits::fifo_unsafe(7, c));
  add(circuits::fifo_unsafe(6, p.one(40, 50)));
  add(circuits::counter_enable_unsafe(8, p.one(129, 160)));
  for (const auto t : p.pick(65, 80, 2)) {
    add(circuits::counter_enable_unsafe(7, t));
  }
  add(circuits::saturating_accumulator_unsafe(8, p.one(180, 220)));
  add(circuits::saturating_accumulator_safe(8, p.one(180, 220)));
  const auto digits = lock_digits(p.free(), 5, 10);
  add(circuits::combination_lock_unsafe(5, digits));
  add(circuits::combination_lock_safe(5, digits, p.one(3, 7)));
  return out;
}

/// bmc-kind: BMC on unsafe cases, k-induction on the cases it decides.
std::vector<Drawn> draw_bmc_kind(Params& p) {
  const std::vector<std::string> bmc = {"bmc"};
  const std::vector<std::string> kind = {"kind"};
  const std::vector<std::string> both = {"bmc", "kind"};
  std::vector<Drawn> out;
  const auto add = [&](circuits::CircuitCase c,
                       const std::vector<std::string>& e) {
    out.push_back({std::move(c), e});
  };
  for (const auto t : p.pick(55, 70, 2)) {
    add(circuits::counter_enable_unsafe(7, t), bmc);
  }
  for (const auto c : p.pick(36, 46, 2)) add(circuits::fifo_unsafe(6, c), bmc);
  for (const auto t : p.pick(30, 36, 2)) {
    add(circuits::counter_enable_unsafe(6, t), both);
  }
  for (const auto c : p.pick(18, 24, 2)) add(circuits::fifo_unsafe(5, c), both);
  for (const auto s : p.pick(50, 70, 2)) {
    add(circuits::lfsr_unsafe(12, kTaps12, static_cast<int>(s)), both);
  }
  for (const auto w : p.pick(26, 32, 2)) {
    add(circuits::shift_register(w, false), both);
  }
  add(circuits::counter_unsafe(6, p.one(40, 50)), both);
  add(circuits::counter_unsafe(8, p.one(120, 160)), bmc);
  const auto digits = lock_digits(p.free(), 6, 12);
  add(circuits::combination_lock_unsafe(6, digits), both);
  add(circuits::combination_lock_safe(6, digits, p.one(4, 8)), kind);
  add(circuits::saturating_accumulator_unsafe(8, p.one(180, 220)), both);
  add(circuits::saturating_accumulator_safe(6, p.one(40, 60)), kind);
  add(circuits::shift_register(p.one(16, 24), true), kind);
  add(circuits::twin_counters_safe(p.one(10, 20)), kind);
  add(circuits::arbiter_safe(p.one(6, 12)), kind);
  add(circuits::token_ring_safe(p.one(6, 12)), kind);
  add(circuits::fifo_safe(5, p.one(18, 24)), kind);
  return out;
}

/// serve-mixed: the warmed set (reads) — small circuits, each with a
/// certificate worth revalidating.
std::vector<circuits::CircuitCase> draw_serve_warm(Draw& d) {
  std::vector<circuits::CircuitCase> out;
  for (const auto n : d.distinct(8, 13, 4)) {
    out.push_back(circuits::token_ring_safe(n));
  }
  for (const auto n : d.distinct(8, 13, 4)) {
    out.push_back(circuits::arbiter_safe(n));
  }
  for (const auto w : d.distinct(8, 12, 4)) {
    out.push_back(circuits::twin_counters_safe(w));
  }
  for (const auto w : d.distinct(4, 6, 3)) {
    out.push_back(circuits::gray_counter_safe(w));
  }
  for (const auto c : d.distinct(18, 24, 3)) {
    out.push_back(circuits::fifo_safe(5, c));
  }
  for (const auto c : d.distinct(45, 55, 3)) {
    out.push_back(circuits::saturating_accumulator_safe(6, c));
  }
  for (const auto t : d.distinct(48, 60, 3)) {
    out.push_back(circuits::counter_unsafe(6, t));
  }
  for (const auto s : d.distinct(18, 22, 3)) {
    out.push_back(circuits::lfsr_unsafe(8, kTaps8, static_cast<int>(s)));
  }
  for (const auto w : d.distinct(12, 20, 3)) {
    out.push_back(circuits::shift_register(w, true));
  }
  for (int i = 0; i < 3; ++i) {
    const auto digits = lock_digits(d, 4, 6);
    out.push_back(circuits::combination_lock_unsafe(4, digits));
    out.push_back(circuits::combination_lock_safe(4, digits, d.range(2, 4)));
  }
  out.push_back(circuits::mutex_safe());
  return out;
}

/// serve-mixed: one first-seen circuit (a write) — a combination lock with
/// fresh digits, solved in about a millisecond.
circuits::CircuitCase draw_serve_write(Draw& d) {
  const std::size_t width = d.range(4, 5);
  const auto digits = lock_digits(d, width, d.range(6, 8));
  if (d.range(0, 1) == 0) return circuits::combination_lock_unsafe(width, digits);
  return circuits::combination_lock_safe(width, digits,
                                         d.range(1, digits.size() - 1));
}

/// Serializes, parses, hashes and builds the transition system of one
/// generated circuit — the per-circuit part of set-up.
Case prepare(const circuits::CircuitCase& cc,
             std::vector<std::string> engines) {
  Case c;
  c.name = cc.name;
  c.expected_safe = cc.expected_safe;
  c.cex_length = cc.expected_cex_length;
  c.engines = std::move(engines);
  c.aiger = span("aig.to_aiger_ascii", -1,
                 [&] { return aig::to_aiger_ascii(cc.aig); });
  const aig::Aig parsed = span("aig.read_aiger_string", -1,
                               [&] { return aig::read_aiger_string(c.aiger); });
  c.hash = span("aig.canonical_hash_hex", -1,
                [&] { return aig::canonical_hash_hex(parsed); });
  c.ts = span("ts.from_aig", -1, [&] {
    return std::make_unique<ts::TransitionSystem>(
        ts::TransitionSystem::from_aig(parsed, 0));
  });
  return c;
}

// ----- verdict checks ------------------------------------------------------------

/// Why `r` is not an acceptable answer for `c` (empty = acceptable): the
/// verdict must be definitive and equal the known answer, an exact
/// counterexample depth must match, and the certificate must pass
/// cert::check.  Runs outside every timed phase.
std::string judge(const Case& c, const check::CheckResult& r,
                  const std::string& engine, std::uint64_t seed) {
  if (r.verdict == ic3::Verdict::kUnknown) return "no verdict";
  if ((r.verdict == ic3::Verdict::kSafe) != c.expected_safe) {
    return std::string("wrong verdict ") + ic3::to_string(r.verdict);
  }
  // A trace holds the initial state plus one state per step.
  if (r.verdict == ic3::Verdict::kUnsafe && c.cex_length >= 0 &&
      r.trace.has_value() &&
      r.trace->length() != static_cast<std::size_t>(c.cex_length) + 1) {
    return engine + " counterexample depth " +
           std::to_string(r.trace->length() - 1) + " != expected " +
           std::to_string(c.cex_length);
  }
  std::string why;
  const auto cert = span("cert.emit", -1, [&] {
    auto made = cert::from_verdict(*c.ts, r.verdict, r.invariant, r.trace,
                                   r.kind_k, r.kind_simple_path, 0, &why);
    if (made.has_value()) (void)cert::to_text(*made);
    return made;
  });
  if (!cert.has_value()) return "no certificate: " + why;
  const ic3::CheckOutcome outcome =
      span("cert.check", -1, [&] { return cert::check(*c.ts, *cert, seed); });
  if (!outcome.ok) return "certificate rejected: " + outcome.reason;
  return "";
}

// ----- per-layer metrics ----------------------------------------------------------

double mean_ms(const std::map<std::string, SpanTotals>& spans,
               const std::string& name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return 0.0;
  return 1e3 * it->second.total_s / static_cast<double>(it->second.count);
}

double total_s(const std::map<std::string, SpanTotals>& spans,
               const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

/// The engine-layer rows of the per-layer table, from one unit's totals.
void engine_layer_metrics(Report& rep, const Totals& t) {
  const auto sec = [&](Phase p) { return t.phases.seconds_of(p); };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.metric("ic3.push_queries", d(t.push_queries), "count");
  rep.metric("ic3.push_per_lemma", ratio(d(t.push_queries), d(t.lemmas)),
             "ratio");
  rep.metric("ic3.push_success_ratio",
             ratio(d(t.push_successes), d(t.push_queries)), "ratio");
  rep.metric("ic3.propagate_s", sec(Phase::kPropagate), "s");
  rep.metric("ic3.mic_queries", d(t.mic_queries), "count");
  rep.metric("ic3.gen_queries_per_lemma",
             ratio(d(t.mic_queries + t.predict_queries), d(t.lemmas)), "ratio");
  rep.metric("ic3.mic_drop_ratio", ratio(d(t.mic_drops), d(t.mic_queries)),
             "ratio");
  rep.metric("ic3.filter_saved_ratio",
             ratio(d(t.filter_saved), d(t.filter_checks)), "ratio");
  rep.metric("ic3.batch_answers_per_solve",
             ratio(d(t.batch_answers), d(t.batch_solves)), "ratio");
  rep.metric("ic3.generalize_s", sec(Phase::kGeneralize), "s");
  rep.metric("ic3.predict.queries", d(t.predict_queries), "count");
  rep.metric("ic3.predict.sr_lp", ratio(d(t.predict_hits), d(t.predict_queries)),
             "ratio");
  rep.metric("ic3.predict.sr_fp", ratio(d(t.failed_parents), d(t.gens)),
             "ratio");
  rep.metric("ic3.predict.sr_adv", ratio(d(t.predict_hits), d(t.gens)),
             "ratio");
  rep.metric("ic3.predict_s", sec(Phase::kPredict), "s");
  rep.metric("ic3.lemmas", d(t.lemmas), "count");
  rep.metric("ic3.obligations", d(t.obligations), "count");
  rep.metric("ic3.lift_s", sec(Phase::kLift), "s");
  rep.metric("ic3.rebuild_s", sec(Phase::kRebuild), "s");
  rep.metric("sat.solves", d(t.solves), "count");
  rep.metric("sat.us_per_solve", 1e6 * ratio(sec(Phase::kSatSolve), d(t.solves)),
             "us");
  rep.metric("sat.propagations", d(t.propagations), "count");
  rep.metric("sat.conflicts", d(t.conflicts), "count");
  rep.metric("sat.trail_reuse_ratio", ratio(d(t.trail_reuse), d(t.solves)),
             "ratio");
  rep.metric("sat.inprocess_s", sec(Phase::kSatInprocess), "s");
  rep.metric("sat.vivify_s", sec(Phase::kSatVivify), "s");
  rep.metric("bmc.unroll_s", sec(Phase::kUnroll), "s");
  rep.metric("bmc.frames", d(t.frames), "count");
  rep.metric("sat.probe_failed_lits", d(t.probe_failed), "count");
  rep.metric("sat.scc_merged_vars", d(t.scc_merged), "count");
  rep.metric("share.propagate", ratio(sec(Phase::kPropagate), t.engine_s),
             "ratio");
  rep.metric("share.generalize", ratio(sec(Phase::kGeneralize), t.engine_s),
             "ratio");
  rep.metric("share.unroll", ratio(sec(Phase::kUnroll), t.engine_s), "ratio");
}

/// The aig/ts/cert rows, from span means.
void span_layer_metrics(Report& rep,
                        const std::map<std::string, SpanTotals>& spans,
                        std::uint64_t cert_failures) {
  rep.metric("aig.parse_ms", mean_ms(spans, "aig.read_aiger_string"), "ms");
  rep.metric("aig.hash_us", 1e3 * mean_ms(spans, "aig.canonical_hash_hex"),
             "us");
  rep.metric("ts.build_ms", mean_ms(spans, "ts.from_aig"), "ms");
  rep.metric("cert.check_ms", mean_ms(spans, "cert.check"), "ms");
  rep.metric("cert.emit_ms", mean_ms(spans, "cert.emit"), "ms");
  rep.metric("cert.failures", static_cast<double>(cert_failures), "count");
}

/// The serving-layer rows (all zero on the proving workloads).
struct ServeLayer {
  double hit_ratio = 0.0;
  double revalidations = 0.0;
  double revalidation_failures = 0.0;
  double queue_full = 0.0;
  double lookup_ms = 0.0;
  double store_ms = 0.0;
  double transport_ms = 0.0;
  double revalidate_share = 0.0;
};

void serve_layer_metrics(Report& rep, const ServeLayer& s) {
  rep.metric("serve.hit_ratio", s.hit_ratio, "ratio");
  rep.metric("serve.revalidations", s.revalidations, "count");
  rep.metric("serve.revalidation_failures", s.revalidation_failures, "count");
  rep.metric("serve.queue_full", s.queue_full, "count");
  rep.metric("serve.lookup_ms", s.lookup_ms, "ms");
  rep.metric("serve.store_ms", s.store_ms, "ms");
  rep.metric("serve.transport_ms", s.transport_ms, "ms");
  rep.metric("share.revalidate", s.revalidate_share, "ratio");
}

/// `overheads`: each traced unit's wall time minus the untraced unit run
/// just before it.
void overhead_metrics(Report& rep, const std::vector<double>& overheads,
                      const std::vector<double>& untraced) {
  const double d = median(overheads);
  rep.metric("trace.overhead_s", d, "s");
  rep.metric("trace.overhead_ratio", ratio(d, median(untraced)), "ratio");
  std::uint64_t n = 0;
  for (const auto& [name, agg] : span_totals()) {
    n += agg.count;
    std::fprintf(stderr, "perfbench: span %-26s count %8llu  total %.6f s  self %.6f s\n",
                 name.c_str(), static_cast<unsigned long long>(agg.count),
                 agg.total_s, agg.self_s);
  }
  rep.metric("trace.spans", static_cast<double>(n), "count");
}

/// Shared end-to-end rows; `unit_walls` holds one wall time per timed unit
/// (pass or round), `op_ms` one latency per operation.
void end_to_end_metrics(Report& rep, const std::vector<double>& unit_walls,
                        const std::vector<double>& unit_par2,
                        const std::vector<double>& op_ms, double tail_ms,
                        double tail_pct, std::size_t ops_per_unit,
                        std::uint64_t good, double setup_s) {
  const double wall = median(unit_walls);
  rep.metric("wall_s", wall, "s");
  rep.metric("par2_s", median(unit_par2), "s");
  rep.metric("op_ms_p50", median(op_ms), "ms");
  rep.metric("op_ms_tail", tail_ms, "ms");
  rep.metric("ops_per_s", ratio(static_cast<double>(ops_per_unit), wall),
             "1/s");
  rep.metric("solved_ratio",
             ratio(static_cast<double>(good), static_cast<double>(rep.attempted)),
             "ratio");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("setup_s", setup_s, "s");
  rep.notes.push_back({"op_ms_tail_percentile", tail_pct});
  rep.notes.push_back({"op_samples", static_cast<double>(op_ms.size())});
  rep.notes.push_back({"units", static_cast<double>(unit_walls.size())});
  std::string walls;
  for (const double w : unit_walls) walls += " " + std::to_string(w);
  std::fprintf(stderr, "perfbench: unit walls (s):%s\n", walls.c_str());
}

// ----- proving workloads ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string scratch = ".";
};

struct Pair {
  std::size_t case_index;
  std::string engine;
};

/// The pairs of one pass: a draw of circuits and the order to run them in.
struct PassSet {
  std::vector<Case> cases;
  std::vector<Pair> pairs;
};

/// Draw `k` of the run.  Each pass runs a different draw (cycling after
/// kDraws), so one run covers kDraws times more circuits than one pass.
PassSet make_pass_set(const Options& opt, std::size_t k) {
  Params p(opt.seed, k);
  std::vector<Drawn> drawn = span("circuits.generate", -1, [&] {
    if (opt.workload == "ic3-push") return draw_ic3_push(p);
    if (opt.workload == "ic3-generalize") return draw_ic3_generalize(p);
    return draw_bmc_kind(p);
  });
  PassSet set;
  for (Drawn& dr : drawn) set.cases.push_back(prepare(dr.cc, dr.engines));
  for (std::size_t i = 0; i < set.cases.size(); ++i) {
    for (const std::string& e : set.cases[i].engines) set.pairs.push_back({i, e});
  }
  p.free().shuffle(set.pairs);
  return set;
}

/// Runs every pair of `set` once; the timed part is the loop of check_ts
/// calls.  Verdicts, certificates and guards are checked afterwards.
struct PassResult {
  double wall_s = 0.0;
  double par2_s = 0.0;
  Totals totals;
};

PassResult run_pass(const Options& opt, const PassSet& set, Report& rep,
                    std::vector<double>& op_ms, std::uint64_t& good,
                    std::uint64_t& cert_failures) {
  std::vector<check::CheckResult> results(set.pairs.size());
  std::vector<double> pair_s(set.pairs.size());
  const auto t0 = Clock::now();
  for (std::size_t p = 0; p < set.pairs.size(); ++p) {
    check::CheckOptions co;
    co.engine_spec = set.pairs[p].engine;
    co.budget_ms = kBudgetMs;
    co.seed = opt.seed;
    const ts::TransitionSystem& ts = *set.cases[set.pairs[p].case_index].ts;
    const auto tp = Clock::now();
    results[p] = span("check.check_ts", static_cast<std::int64_t>(p),
                      [&] { return check::check_ts(ts, co); });
    pair_s[p] = seconds_since(tp);
  }
  PassResult out;
  out.wall_s = seconds_since(t0);

  std::vector<double> case_s(set.cases.size(), 0.0);
  for (std::size_t p = 0; p < set.pairs.size(); ++p) {
    const Case& c = set.cases[set.pairs[p].case_index];
    const std::string& engine = set.pairs[p].engine;
    ++rep.attempted;
    const std::string why = judge(c, results[p], engine, opt.seed);
    if (why.empty()) {
      ++good;
      out.par2_s += pair_s[p];
    } else {
      if (why.rfind("certificate", 0) == 0 || why.rfind("no cert", 0) == 0) {
        ++cert_failures;
      }
      rep.fail(c.name + " with " + engine + ": " + why);
      out.par2_s += 2e-3 * static_cast<double>(kBudgetMs);
    }
    op_ms.push_back(1e3 * pair_s[p]);
    case_s[set.pairs[p].case_index] += pair_s[p];
    if (pair_s[p] > kMarginShare * 1e-3 * static_cast<double>(kBudgetMs)) {
      rep.flags.push_back("margin: " + c.name + " with " + engine + " took " +
                          std::to_string(pair_s[p]) + " s");
    }
    out.totals.add(results[p], engine == "bmc" || engine == "kind");
  }
  for (std::size_t i = 0; i < set.cases.size(); ++i) {
    if (case_s[i] > kDominanceCap * out.wall_s) {
      rep.flags.push_back("dominance: " + set.cases[i].name + " took " +
                          std::to_string(100.0 * case_s[i] / out.wall_s) +
                          "% of the pass");
    }
  }
  return out;
}

Report run_proving(const Options& opt) {
  Report rep;
  // Set-up: generate, serialize, parse, hash and build every draw.  It runs
  // kSetupReps times before the timed phase and once more after every pass,
  // so its samples span the run like the passes do: a set-up of a few
  // milliseconds timed only at process start reads the host's speed at
  // that instant.
  std::vector<double> setup_times;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::vector<PassSet> made;
    for (std::size_t k = 0; k < kDraws; ++k) made.push_back(make_pass_set(opt, k));
    setup_times.push_back(seconds_since(t0));
    return made;
  };
  std::vector<PassSet> sets;
  for (int i = 0; i < kSetupReps; ++i) sets = set_up();

  // Untraced runs cycle through the draws.  Traced runs run each draw
  // twice, untraced then traced, so the overhead is a paired difference.
  std::vector<double> walls, par2s, op_ms, overheads, untraced_walls;
  // Exact counts of each draw run so far.
  std::vector<std::map<std::string, std::uint64_t>> draw_counts;
  Totals traced_totals;  // traced passes of draws 0 and 1
  std::uint64_t good = 0, cert_failures = 0;
  const auto start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    const std::size_t k = (opt.trace ? pass / 2 : pass) % kDraws;
    g_tracing = traced;
    const PassResult r = run_pass(opt, sets[k], rep, op_ms, good, cert_failures);
    g_tracing = false;

    // Exact counts: a draw run again must do identical work.
    const auto counts = r.totals.exact();
    if (k == draw_counts.size()) {
      draw_counts.push_back(counts);
    } else if (draw_counts[k] != counts) {
      rep.correct = false;
      std::fprintf(stderr, "perfbench: exact counts of draw %zu differ\n", k);
    }
    walls.push_back(r.wall_s);
    par2s.push_back(r.par2_s);
    if (!traced) untraced_walls.push_back(r.wall_s);
    if (traced) {
      overheads.push_back(r.wall_s - untraced_walls.back());
      if (k < 2) traced_totals.add(r.totals);
    }

    if (!opt.trace) (void)set_up();

    const double elapsed = seconds_since(start);
    const bool enough = opt.trace ? overheads.size() >= 2 : pass >= 1;
    if (enough && elapsed + r.wall_s > opt.seconds) break;
  }
  rep.counts = draw_counts;

  if (!opt.trace) {
    double pct = 0.0;
    const double tail_ms = tail(op_ms, &pct);
    end_to_end_metrics(rep, walls, par2s, op_ms, tail_ms, pct,
                       sets.front().pairs.size(), good, median(setup_times));
  } else {
    engine_layer_metrics(rep, traced_totals);
    span_layer_metrics(rep, span_totals(), cert_failures);
    serve_layer_metrics(rep, ServeLayer{});  // no serving layer here
    overhead_metrics(rep, overheads, untraced_walls);
  }
  for (const Pair& p : sets.front().pairs) {
    rep.pairs.push_back(sets.front().cases[p.case_index].name + " " + p.engine);
  }
  rep.notes.push_back({"pairs_per_pass", static_cast<double>(sets.front().pairs.size())});
  rep.notes.push_back({"draws_run", static_cast<double>(draw_counts.size())});
  return rep;
}

// ----- serve-mixed ---------------------------------------------------------------

/// One request of a round: which circuit, and the exact bytes sent.
struct Request {
  std::size_t case_index;  // into ServeState::cases
  std::string text;
  bool write = false;
};

struct ServeState {
  std::vector<Case> cases;  // warm set first, then every write so far
  std::size_t warm = 0;
  std::unordered_set<std::string> hashes;  // of every case so far
  std::string cache_path;
  std::string socket_path;
  std::unique_ptr<serve::VerdictCache> cache;
  std::unique_ptr<serve::Server> server;
};

/// Solves `c` in process and stores its certified verdict — how the warm
/// set enters a cache, and how the traced replay serves a miss.
std::optional<check::CheckResult> solve_and_store(serve::VerdictCache& cache,
                                                  const Case& c,
                                                  std::uint64_t seed,
                                                  std::int64_t id) {
  check::CheckOptions co;
  co.engine_spec = "ic3-down";
  co.budget_ms = kBudgetMs;
  co.seed = seed;
  check::CheckResult r =
      span("check.check_ts", id, [&] { return check::check_ts(*c.ts, co); });
  std::string why;
  const auto made = span("cert.emit", id, [&] {
    auto m = cert::from_verdict(*c.ts, r.verdict, r.invariant, r.trace,
                                r.kind_k, r.kind_simple_path, 0, &why);
    std::string text;
    if (m.has_value()) text = cert::to_text(*m);
    return std::make_pair(m, text);
  });
  if (!made.first.has_value()) return std::nullopt;
  if (!span("cert.check", id,
            [&] { return cert::check(*c.ts, *made.first, seed); })
           .ok) {
    return std::nullopt;
  }
  serve::CacheEntry entry;
  entry.hash = c.hash;
  entry.verdict = r.verdict;
  entry.engine = co.engine_spec;
  entry.seconds = r.seconds;
  entry.frames = r.frames;
  entry.cert_text = made.second;
  entry.case_name = c.name;
  if (!span("serve.store", id, [&] { return cache.store(entry); })) {
    return std::nullopt;
  }
  return r;
}

/// Text variant of `aiger` that must hit the same cache entry: a symbol
/// table and/or a comment section, both ignored by the canonical hash.
std::string variant_text(const std::string& aiger, std::uint64_t tag) {
  std::string out = aiger;
  if (tag % 2 == 0) out += "i0 req_" + std::to_string(tag) + "\n";
  out += "c\nperfbench variant " + std::to_string(tag) + "\n";
  return out;
}

std::vector<Request> draw_round(ServeState& st, std::uint64_t seed,
                                std::size_t round) {
  Draw d(seed * 1000003ULL + round);
  std::vector<Request> reqs;
  reqs.reserve(kRoundRequests);
  for (std::size_t i = 0; i < kRoundRequests; ++i) {
    if (i % kWriteEvery == kWriteEvery - 1) {
      // Redraw the rare lock that repeats an earlier circuit: a write must
      // be first-seen.
      Case c = prepare(draw_serve_write(d), {"ic3-down"});
      while (!st.hashes.insert(c.hash).second) {
        c = prepare(draw_serve_write(d), {"ic3-down"});
      }
      st.cases.push_back(std::move(c));
      reqs.push_back({st.cases.size() - 1, st.cases.back().aiger, true});
      continue;
    }
    const std::size_t k = d.range(0, st.warm - 1);
    std::string text = d.range(0, kVariantEvery - 1) == 0
                           ? variant_text(st.cases[k].aiger, d.next() % 1000)
                           : st.cases[k].aiger;
    reqs.push_back({k, std::move(text), false});
  }
  return reqs;
}

struct Reply {
  double ms = 0.0;
  std::string text;
};

/// Closed loop: each client sends its next request only after the previous
/// reply arrived.  Client k sends requests k, k + kClients, ...
std::vector<Reply> run_round(const std::string& socket_path,
                             const std::vector<Request>& reqs) {
  std::vector<Reply> replies(reqs.size());
  std::vector<std::thread> clients;
  for (std::size_t k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      for (std::size_t i = k; i < reqs.size(); i += kClients) {
        const auto t0 = Clock::now();
        std::string error;
        const auto resp = span("serve.client_request",
                               static_cast<std::int64_t>(i), [&] {
                                 return serve::client_request(
                                     socket_path,
                                     serve::make_check_request(reqs[i].text),
                                     &error);
                               });
        replies[i].ms = 1e3 * seconds_since(t0);
        replies[i].text = resp.has_value() ? *resp : "error " + error;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return replies;
}

/// The traced replay: the same request sequence straight through the
/// cache, engine and certificate layers, against `replay` (a second cache
/// warmed like the server's).  Returns the in-process seconds per request
/// and adds the engine totals of every miss.
std::vector<double> replay_round(ServeState& st, serve::VerdictCache& replay,
                                 const std::vector<Request>& reqs,
                                 std::uint64_t seed, Totals& totals) {
  std::vector<double> out;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const auto t0 = Clock::now();
    // Parent of the request's layer spans; its self time is the replay's own.
    const SpanScope request("serve.replay_request", id);
    const aig::Aig parsed = span("aig.read_aiger_string", id, [&] {
      return aig::read_aiger_string(reqs[i].text);
    });
    const std::string hash = span("aig.canonical_hash_hex", id, [&] {
      return aig::canonical_hash_hex(parsed);
    });
    const ts::TransitionSystem ts = span(
        "ts.from_aig", id, [&] { return ts::TransitionSystem::from_aig(parsed, 0); });
    const auto hit =
        span("serve.lookup", id, [&] { return replay.lookup(hash, ts, seed); });
    if (!hit.has_value()) {
      const auto r = solve_and_store(replay, st.cases[reqs[i].case_index], seed,
                                     id);
      if (r.has_value()) totals.add(*r, false);
    }
    out.push_back(seconds_since(t0));
  }
  return out;
}

/// Set-up of serve-mixed: generate and serialize the warm set, warm a fresh
/// file-backed cache in process, start the server.
void serve_setup(ServeState& st, const Options& opt, Totals& warm_totals) {
  Draw d(opt.seed);
  const std::vector<circuits::CircuitCase> warm =
      span("circuits.generate", -1, [&] { return draw_serve_warm(d); });
  st.cases.clear();
  st.hashes.clear();
  for (const auto& cc : warm) {
    st.cases.push_back(prepare(cc, {"ic3-down"}));
    st.hashes.insert(st.cases.back().hash);
  }
  st.warm = st.cases.size();
  std::filesystem::remove(st.cache_path);
  st.cache = std::make_unique<serve::VerdictCache>(st.cache_path);
  for (std::size_t i = 0; i < st.warm; ++i) {
    const auto r = solve_and_store(*st.cache, st.cases[i], opt.seed, -1);
    if (!r.has_value()) {
      throw std::runtime_error("warm-up could not certify " + st.cases[i].name);
    }
    warm_totals.add(*r, false);
  }
  serve::ServerOptions so;
  so.socket_path = st.socket_path;
  so.engine_spec = "ic3-down";
  so.budget_ms = kBudgetMs;
  so.seed = opt.seed;
  so.workers = kServerWorkers;
  so.cache = st.cache.get();
  st.server = std::make_unique<serve::Server>(so);
  std::string error;
  if (!span("serve.start", -1, [&] { return st.server->start(&error); })) {
    throw std::runtime_error(error);
  }
}

/// Why `reply` is not an acceptable answer to `req` (empty = acceptable).
std::string judge_reply(const Case& c, const Request& req,
                        const std::string& reply) {
  if (reply.rfind("ok verdict=", 0) != 0) return "reply '" + reply + "'";
  const std::string want = c.expected_safe ? "SAFE" : "UNSAFE";
  const std::string got = reply.substr(11, reply.find(' ', 11) - 11);
  if (got != want) return "verdict " + got + ", expected " + want;
  const bool cached = reply.find(" cached=1") != std::string::npos;
  if (cached == req.write) {
    return req.write ? "first-seen circuit served from cache"
                     : "warmed circuit missed the cache";
  }
  return "";
}

/// Re-checks the certificate the server cached for `c` against `c` itself.
bool recheck_cached(serve::VerdictCache& cache, const Case& c,
                    std::uint64_t seed) {
  const auto entry = span("serve.peek", -1, [&] { return cache.peek(c.hash); });
  std::string error = "no cache entry";
  const auto parsed = span("cert.parse", -1, [&] {
    return entry.has_value() ? cert::parse(entry->cert_text, &error)
                             : std::nullopt;
  });
  if (parsed.has_value()) {
    const ic3::CheckOutcome outcome = span(
        "cert.check", -1, [&] { return cert::check(*c.ts, *parsed, seed); });
    if (outcome.ok) return true;
    error = outcome.reason;
  }
  std::fprintf(stderr, "perfbench: certificate of %s does not check: %s\n",
               c.name.c_str(), error.c_str());
  return false;
}

Report run_serve(const Options& opt) {
  Report rep;
  ServeState st;
  st.cache_path = opt.scratch + "/serve-cache-" + std::to_string(::getpid()) +
                  ".jsonl";
  st.socket_path =
      opt.scratch + "/serve-" + std::to_string(::getpid()) + ".sock";

  std::vector<double> setup_times;
  Totals warm_totals;
  for (int i = 0; i < kSetupReps; ++i) {
    if (st.server) {
      st.server->request_stop();
      st.server->wait();
      st.server.reset();
    }
    Totals t;
    const auto t0 = Clock::now();
    serve_setup(st, opt, t);
    setup_times.push_back(seconds_since(t0));
    if (i > 0 && t.exact() != warm_totals.exact()) {
      rep.correct = false;
      std::fprintf(stderr, "perfbench: warm-up counts differ between set-ups\n");
    }
    warm_totals = t;
  }
  rep.counts = {warm_totals.exact()};

  // The traced replay's own cache, warmed with the same entries.
  const std::string replay_path =
      opt.scratch + "/serve-replay-" + std::to_string(::getpid()) + ".jsonl";
  std::unique_ptr<serve::VerdictCache> replay;
  if (opt.trace) {
    std::filesystem::remove(replay_path);
    replay = std::make_unique<serve::VerdictCache>(replay_path);
    for (std::size_t i = 0; i < st.warm; ++i) {
      if (const auto e = st.cache->peek(st.cases[i].hash)) replay->store(*e);
    }
  }

  std::vector<double> walls, par2s, op_ms, tails, overheads, untraced_walls;
  std::vector<double> replayed_latency_ms, replay_ms;
  std::vector<std::size_t> answered;  // case index of each correct reply
  std::vector<bool> cert_ok;          // per case, once re-checked
  std::uint64_t cert_failures = 0;
  Totals replay_totals;
  double tail_pct = 0.0;
  const auto start = Clock::now();
  // Set-up spans are not part of the request path.
  g_tracing = false;
  clear_spans();
  for (std::size_t round = 0;; ++round) {
    const std::size_t first_write = st.cases.size();
    const std::vector<Request> reqs = draw_round(st, opt.seed, round);
    const bool traced = opt.trace && round % 2 == 1;
    // The first two traced rounds are also replayed in process, so the
    // replayed counts are the same in every traced run of a seed.
    const bool replayed = traced && round < 4;
    g_tracing = traced;
    const auto t0 = Clock::now();
    const std::vector<Reply> replies = run_round(st.socket_path, reqs);
    const double wall = seconds_since(t0);

    double par2 = 0.0;
    std::vector<double> round_ms;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Case& c = st.cases[reqs[i].case_index];
      ++rep.attempted;
      const std::string why = judge_reply(c, reqs[i], replies[i].text);
      double ms = replies[i].ms;
      if (why.empty()) {
        answered.push_back(reqs[i].case_index);
      } else {
        rep.fail("request " + std::to_string(i) + " (" + c.name + "): " + why);
        ms = 2.0 * static_cast<double>(kBudgetMs);
      }
      round_ms.push_back(ms);
      par2 += 1e-3 * ms;
      if (replayed) replayed_latency_ms.push_back(replies[i].ms);
    }
    op_ms.insert(op_ms.end(), round_ms.begin(), round_ms.end());
    tails.push_back(tail(round_ms, &tail_pct));
    walls.push_back(wall);
    par2s.push_back(par2);
    if (traced) {
      overheads.push_back(wall - untraced_walls.back());
    } else {
      untraced_walls.push_back(wall);
    }
    if (replayed) {
      for (const double sec : replay_round(st, *replay, reqs, opt.seed,
                                           replay_totals)) {
        replay_ms.push_back(1e3 * sec);
      }
    }
    // This round's writes: re-check what the server cached, then drop the
    // circuits so memory tracks the program, not the benchmark.
    for (std::size_t i = first_write; i < st.cases.size(); ++i) {
      cert_ok.resize(st.cases.size(), false);
      cert_ok[i] = recheck_cached(*st.cache, st.cases[i], opt.seed);
      st.cases[i].ts.reset();
      st.cases[i].aiger.clear();
    }
    g_tracing = false;
    const double elapsed = seconds_since(start);
    const bool enough = opt.trace ? overheads.size() >= 2 : round >= 1;
    if (enough && elapsed + wall > opt.seconds) break;
  }

  st.server->request_stop();
  st.server->wait();
  const serve::ServerStats server_stats = st.server->stats();
  const serve::CacheStats& cs = st.cache->stats();

  // The warmed circuits' certificates, re-checked once at the end.
  g_tracing = opt.trace;
  for (std::size_t i = 0; i < st.warm; ++i) {
    cert_ok[i] = recheck_cached(*st.cache, st.cases[i], opt.seed);
  }
  g_tracing = false;
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < cert_ok.size(); ++i) cert_failures += !cert_ok[i];
  for (const std::size_t i : answered) {
    if (cert_ok[i]) {
      ++good;
    } else {
      rep.fail("reply for " + st.cases[i].name + " has no valid certificate");
    }
  }

  if (!opt.trace) {
    end_to_end_metrics(rep, walls, par2s, op_ms, median(tails), tail_pct,
                       kRoundRequests, good, median(setup_times));
  } else {
    engine_layer_metrics(rep, replay_totals);
    const auto spans = span_totals();
    span_layer_metrics(rep, spans, cert_failures);
    double latency_ms = 0.0, in_process_ms = 0.0;
    for (const double v : replayed_latency_ms) latency_ms += v;
    for (const double v : replay_ms) in_process_ms += v;
    ServeLayer s;
    s.hit_ratio = ratio(static_cast<double>(cs.hits.load()),
                        static_cast<double>(cs.lookups.load()));
    s.revalidations = static_cast<double>(cs.revalidations.load());
    s.revalidation_failures =
        static_cast<double>(cs.revalidation_failures.load());
    s.queue_full = static_cast<double>(server_stats.rejected_queue_full);
    s.lookup_ms = mean_ms(spans, "serve.lookup");
    s.store_ms = mean_ms(spans, "serve.store");
    // Request latency minus the same requests served in process.
    s.transport_ms = ratio(latency_ms - in_process_ms,
                           static_cast<double>(replayed_latency_ms.size()));
    s.revalidate_share =
        ratio(1e3 * total_s(spans, "serve.lookup"), in_process_ms);
    serve_layer_metrics(rep, s);
    overhead_metrics(rep, overheads, untraced_walls);
  }
  for (std::size_t i = 0; i < st.warm; ++i) {
    rep.pairs.push_back(st.cases[i].name + " ic3-down");
  }
  rep.notes.push_back({"warm_cases", static_cast<double>(st.warm)});
  rep.notes.push_back(
      {"writes", static_cast<double>(st.cases.size() - st.warm)});
  std::filesystem::remove(st.cache_path);
  if (replay) std::filesystem::remove(replay_path);
  return rep;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--spans") {
      o.spans_path = v;
    } else if (k == "--scratch") {
      o.scratch = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (o.workload != "ic3-push" && o.workload != "ic3-generalize" &&
      o.workload != "bmc-kind" && o.workload != "serve-mixed") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    // The traced run records set-up spans too; the untraced run records
    // nothing.
    g_tracing = opt.trace;
    Report rep = opt.workload == "serve-mixed" ? run_serve(opt) : run_proving(opt);
    if (opt.trace && !opt.spans_path.empty()) write_spans(opt.spans_path);
    clear_spans();
    print_report(rep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-harness: %s\n", e.what());
    return 2;
  }
}
