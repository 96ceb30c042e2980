/// \file verdict_cache.hpp
/// Content-addressed verdict cache: the first tier of the serving layer
/// ("pilot-serve").
///
/// Keyed by the *canonical* AIG hash (aig::canonical_hash_hex — the parsed,
/// comment-stripped structure, not the raw file bytes), so whitespace,
/// comment, and symbol-table variants of a circuit hit the same entry while
/// any structural edit misses.  Each entry embeds the full certificate text
/// alongside the verdict, which makes a cache file self-contained: no
/// dangling cert-path references, and — crucially — a hit is served only
/// after the stored certificate re-checks against the *submitted* circuit
/// via the independent cert:: checker.  A cache can therefore never launder
/// a stale, corrupt, or hash-colliding verdict: revalidation failure is
/// counted and treated as a miss, and the poisoned entry is dropped.
///
/// Persistence is append-only JSONL (one entry per line), the same
/// discipline as corpus::ResultsDb: concurrent writers interleave at line
/// granularity, last entry per hash wins on load, and `ingest()` warms the
/// cache straight from a ResultsDb whose rows recorded cert paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"

namespace pilot::corpus {
class ResultsDb;
}

namespace pilot::serve {

/// One cached verdict: everything needed to serve (and re-check) it.
struct CacheEntry {
  /// Canonical AIG hash (16 hex digits) — the key.
  std::string hash;
  ic3::Verdict verdict = ic3::Verdict::kUnknown;
  /// Engine spec that produced the verdict, original solve time and frame
  /// count — provenance, surfaced to clients and to the advisor.
  std::string engine;
  double seconds = 0.0;
  std::size_t frames = 0;
  /// Certificate in "pilot-cert v1" text form (cert::to_text).  For SAFE
  /// this is the invariant / k-induction certificate; for UNSAFE the
  /// replayable HWMCC witness.  Never empty for a stored entry.
  std::string cert_text;
  std::string case_name;
  std::string timestamp;
};

/// Monotonic cache counters.  Atomics: the server's worker pool and the
/// batch runner both hit one shared cache.
struct CacheStats {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  /// Certificate re-checks performed on candidate hits (== hits +
  /// revalidation_failures).
  std::atomic<std::uint64_t> revalidations{0};
  /// Candidate hits whose certificate failed to re-check — served as
  /// misses, entry dropped.  Nonzero means a corrupt/stale cache file (or a
  /// canonical-hash collision); never a wrong verdict served.
  std::atomic<std::uint64_t> revalidation_failures{0};
  std::atomic<std::uint64_t> stores{0};
};

class VerdictCache {
 public:
  /// Memory-only cache.
  VerdictCache() = default;
  /// Backed by a JSONL file: existing entries are loaded (a missing file is
  /// an empty cache, unparseable lines throw except a torn final line,
  /// which is skipped and counted in torn_lines()), stores append to it.
  explicit VerdictCache(const std::string& path);

  /// The serving path.  Returns the entry for `hash` only if its stored
  /// certificate re-checks against `ts` (the transition system of the
  /// circuit being *submitted*, not the one that populated the entry — so
  /// even a hash collision cannot serve a wrong verdict).  On revalidation
  /// failure the entry is dropped and nullopt returned.
  std::optional<CacheEntry> lookup(const std::string& hash,
                                   const ts::TransitionSystem& ts,
                                   std::uint64_t seed = 0);

  /// Raw map probe — no revalidation, no counters.  Benchmarks and tests
  /// only; never a substitute for lookup() on a serving path.
  [[nodiscard]] std::optional<CacheEntry> peek(const std::string& hash) const;

  /// Inserts/overwrites the entry and appends it to the backing file (when
  /// file-backed).  Entries without a hash or certificate text, or with an
  /// UNKNOWN verdict, are rejected (returns false): the cache stores only
  /// independently checkable definitive verdicts.
  bool store(const CacheEntry& entry);

  /// Warms the cache from campaign rows that recorded a canonical hash and
  /// a saved certificate path (pilot-bench run --certify --cert-dir).
  /// Returns the number of entries added; unreadable certs are skipped.
  std::size_t ingest(const corpus::ResultsDb& db);

  [[nodiscard]] std::size_t size() const;
  /// Torn final lines the constructor skipped (0 or 1).
  [[nodiscard]] std::size_t torn_lines() const { return torn_lines_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  /// One-line human-readable counter summary ("N entries, H hits, ...").
  [[nodiscard]] std::string summary() const;

 private:
  void append_to_file(const CacheEntry& entry);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, CacheEntry> entries_;
  std::string path_;  // empty = memory-only
  CacheStats stats_;
  std::size_t torn_lines_ = 0;
  // How the next append starts a fresh line (both guarded by mutex_):
  // truncate a torn tail away, or end an intact but unterminated line.
  std::optional<std::uint64_t> torn_offset_;
  bool needs_newline_ = false;
};

/// Serialization of one entry (JSONL line), shared with the cache file
/// loader and tests.
[[nodiscard]] std::string cache_entry_to_json(const CacheEntry& entry);
[[nodiscard]] CacheEntry cache_entry_from_json_line(const std::string& line);

}  // namespace pilot::serve
