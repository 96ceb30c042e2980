#include "serve/verdict_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cert/certificate.hpp"
#include "corpus/results_db.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace pilot::serve {

std::string cache_entry_to_json(const CacheEntry& entry) {
  json::Object o;
  o["hash"] = entry.hash;
  o["verdict"] = ic3::to_string(entry.verdict);
  o["engine"] = entry.engine;
  o["seconds"] = entry.seconds;
  o["frames"] = entry.frames;
  o["cert"] = entry.cert_text;
  o["case"] = entry.case_name;
  o["timestamp"] = entry.timestamp;
  return json::Value(std::move(o)).dump();
}

CacheEntry cache_entry_from_json_line(const std::string& line) {
  const json::Value v = json::parse(line);
  CacheEntry e;
  e.hash = v.at("hash").as_string();
  e.verdict = corpus::verdict_from_string(v.at("verdict").as_string());
  e.engine = v.at("engine").as_string();
  e.seconds = v.at("seconds").as_double();
  e.frames = v.at("frames").as_uint();
  e.cert_text = v.at("cert").as_string();
  e.case_name = v.at("case").as_string();
  e.timestamp = v.at("timestamp").as_string();
  if (e.hash.empty()) {
    throw std::runtime_error("verdict cache entry missing \"hash\"");
  }
  return e;
}

VerdictCache::VerdictCache(const std::string& path) : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;  // missing file = empty cache; first store creates it
  const json::JsonlRead read = json::for_each_jsonl_line(
      in, "verdict cache " + path, [this](const std::string& line) {
        CacheEntry e = cache_entry_from_json_line(line);
        entries_[e.hash] = std::move(e);  // last entry per hash wins
      });
  torn_lines_ = read.torn;
  if (read.torn > 0) {
    torn_offset_ = read.last_line_offset;
  } else {
    needs_newline_ = read.ends_mid_line;
  }
}

std::optional<CacheEntry> VerdictCache::lookup(const std::string& hash,
                                               const ts::TransitionSystem& ts,
                                               std::uint64_t seed) {
  PILOT_TRACE_ZONE("cache.lookup");
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);

  CacheEntry candidate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(hash);
    if (it == entries_.end()) {
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    candidate = it->second;  // copy: revalidate outside the map lock
  }

  // Revalidate-before-serve: the stored certificate must re-check against
  // the submitted circuit's transition system on the independent checker.
  bool ok = false;
  {
    PILOT_TRACE_ZONE("cache.revalidate");
    stats_.revalidations.fetch_add(1, std::memory_order_relaxed);
    std::string parse_error;
    const std::optional<cert::Certificate> c =
        cert::parse(candidate.cert_text, &parse_error);
    if (c.has_value()) ok = cert::check(ts, *c, seed).ok;
  }
  if (!ok) {
    PILOT_TRACE_INSTANT("cache.revalidation_failure");
    stats_.revalidation_failures.fetch_add(1, std::memory_order_relaxed);
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(hash);  // poisoned entry: never offer it again
    return std::nullopt;
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return candidate;
}

std::optional<CacheEntry> VerdictCache::peek(const std::string& hash) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(hash);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool VerdictCache::store(const CacheEntry& entry) {
  if (entry.hash.empty() || entry.cert_text.empty() ||
      entry.verdict == ic3::Verdict::kUnknown) {
    return false;
  }
  PILOT_TRACE_ZONE("cache.store");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[entry.hash] = entry;
    if (!path_.empty()) append_to_file(entry);
  }
  stats_.stores.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void VerdictCache::append_to_file(const CacheEntry& entry) {
  // Start on a fresh line: cut off a torn tail left by a killed writer
  // (left in place it would sit mid-file and fail the next load), or end an
  // intact last line that lacks its newline.
  if (torn_offset_.has_value()) {
    std::filesystem::resize_file(path_, *torn_offset_);
    torn_offset_.reset();
  }
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("verdict cache: cannot append to " + path_);
  }
  if (needs_newline_) out << "\n";
  needs_newline_ = false;
  out << cache_entry_to_json(entry) << "\n";
}

std::size_t VerdictCache::ingest(const corpus::ResultsDb& db) {
  std::size_t added = 0;
  for (const corpus::RunRow& row : db.rows()) {
    const check::RunRecord& r = row.record;
    if (!r.solved || r.content_hash.empty() || r.cert_path.empty()) continue;
    std::string error;
    const std::optional<cert::Certificate> c = cert::load(r.cert_path, &error);
    if (!c.has_value()) continue;  // unreadable cert: skip, never trust
    CacheEntry e;
    e.hash = r.content_hash;
    e.verdict = r.verdict;
    e.engine = r.engine;
    e.seconds = r.seconds;
    e.frames = r.frames;
    e.cert_text = cert::to_text(*c);
    e.case_name = r.case_name;
    e.timestamp = row.context.timestamp;
    if (store(e)) ++added;
  }
  return added;
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string VerdictCache::summary() const {
  std::ostringstream out;
  out << size() << " entries, " << stats_.hits.load() << " hits, "
      << stats_.misses.load() << " misses, " << stats_.revalidations.load()
      << " revalidations (" << stats_.revalidation_failures.load()
      << " failed), " << stats_.stores.load() << " stores";
  return out.str();
}

}  // namespace pilot::serve
