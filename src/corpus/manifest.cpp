#include "corpus/manifest.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "aig/aiger_io.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace pilot::corpus {
namespace {

/// Cached per-file parse metadata, keyed by manifest-relative path.
struct CacheEntry {
  std::uint64_t size = 0;
  /// Milliseconds, not nanoseconds: the value must survive a JSON double
  /// round trip exactly (< 2^53), and ms granularity is plenty when paired
  /// with the size check.
  std::int64_t mtime_ms = 0;
  std::string hash;
  std::size_t inputs = 0;
  std::size_t latches = 0;
  std::size_t ands = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::int64_t mtime_ms(const fs::path& path, std::error_code& ec) {
  const auto t = fs::last_write_time(path, ec).time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(t).count();
}

bool is_aiger_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".aig" || ext == ".aag";
}

std::map<std::string, CacheEntry> load_cache(const std::string& root) {
  std::map<std::string, CacheEntry> cache;
  const fs::path path = fs::path(root) / kCacheFilename;
  std::error_code ec;
  if (!fs::exists(path, ec)) return cache;
  json::Value doc;
  try {
    doc = json::parse(read_file(path.string()));
  } catch (const std::exception&) {
    return cache;  // corrupt cache = cold cache
  }
  for (const auto& [rel, v] : doc.at("files").as_object()) {
    CacheEntry e;
    e.size = v.at("size").as_uint();
    e.mtime_ms = v.at("mtime_ms").as_int();
    e.hash = v.at("hash").as_string();
    e.inputs = v.at("inputs").as_uint();
    e.latches = v.at("latches").as_uint();
    e.ands = v.at("ands").as_uint();
    cache[rel] = std::move(e);
  }
  return cache;
}

void save_cache(const std::string& root,
                const std::map<std::string, CacheEntry>& cache) {
  json::Object files;
  for (const auto& [rel, e] : cache) {
    json::Object row;
    row["size"] = e.size;
    row["mtime_ms"] = e.mtime_ms;
    row["hash"] = e.hash;
    row["inputs"] = e.inputs;
    row["latches"] = e.latches;
    row["ands"] = e.ands;
    files[rel] = std::move(row);
  }
  json::Object doc;
  doc["version"] = 1;
  doc["files"] = std::move(files);
  const fs::path path = fs::path(root) / kCacheFilename;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::Value(std::move(doc)).dump() << "\n";
  // A failed cache write is not an error: the cache is an optimization.
}

ManifestEntry entry_from_json(const json::Value& v) {
  ManifestEntry e;
  e.name = v.at("name").as_string();
  e.path = v.at("path").as_string();
  if (e.path.empty()) {
    throw std::runtime_error("manifest case missing \"path\"");
  }
  if (e.name.empty()) e.name = fs::path(e.path).stem().string();
  e.expected = expected_from_string(v.at("expect").as_string());
  e.cex_depth = static_cast<int>(v.at("cex_depth").as_int(-1));
  for (const json::Value& t : v.at("tags").as_array()) {
    e.tags.push_back(t.as_string());
  }
  return e;
}

}  // namespace

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Manifest load_manifest(const std::string& path) {
  json::Value doc;
  try {
    doc = json::parse(read_file(path));
  } catch (const std::exception& e) {
    throw std::runtime_error("manifest " + path + ": " + e.what());
  }
  Manifest m;
  m.root = fs::path(path).parent_path().string();
  if (m.root.empty()) m.root.push_back('.');
  const json::Array& cases = doc.at("cases").as_array();
  if (cases.empty()) {
    throw std::runtime_error("manifest " + path +
                             ": no \"cases\" array (or it is empty)");
  }
  for (const json::Value& v : cases) {
    try {
      m.entries.push_back(entry_from_json(v));
    } catch (const std::exception& e) {
      throw std::runtime_error("manifest " + path + ": " + e.what());
    }
  }
  return m;
}

Manifest scan_directory(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("corpus: '" + dir + "' is not a directory");
  }
  Manifest m;
  m.root = dir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && is_aiger_file(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    ManifestEntry e;
    e.name = f.stem().string();
    e.path = f.filename().string();
    m.entries.push_back(std::move(e));
  }
  return m;
}

void write_manifest(const Manifest& manifest, const std::string& path) {
  json::Array cases;
  for (const ManifestEntry& e : manifest.entries) {
    json::Object row;
    row["name"] = e.name;
    row["path"] = e.path;
    row["expect"] = to_string(e.expected);
    row["cex_depth"] = static_cast<std::int64_t>(e.cex_depth);
    json::Array tags;
    for (const std::string& t : e.tags) tags.push_back(t);
    row["tags"] = std::move(tags);
    cases.emplace_back(std::move(row));
  }
  json::Object doc;
  doc["version"] = 1;
  doc["cases"] = std::move(cases);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write manifest " + path);
  out << json::Value(std::move(doc)).dump() << "\n";
}

ScanReport load_cases(const Manifest& manifest, bool use_cache) {
  ScanReport report;
  std::map<std::string, CacheEntry> cache =
      use_cache ? load_cache(manifest.root)
                : std::map<std::string, CacheEntry>{};
  std::map<std::string, CacheEntry> fresh;

  for (const ManifestEntry& e : manifest.entries) {
    const fs::path full = fs::path(manifest.root) / e.path;
    std::error_code ec;
    const auto status = fs::status(full, ec);
    if (ec || !fs::is_regular_file(status)) {
      report.errors.push_back(e.path + ": file not found");
      continue;
    }
    // error_code overloads throughout: a file vanishing mid-scan must
    // produce a per-entry error like every other failure, not abort the
    // whole scan with a filesystem_error.
    std::error_code size_ec;
    std::error_code time_ec;
    const std::uint64_t size = fs::file_size(full, size_ec);
    const std::int64_t mtime = mtime_ms(full, time_ec);
    if (size_ec || time_ec) {
      report.errors.push_back(e.path + ": cannot stat file");
      continue;
    }

    CacheEntry meta;
    const auto hit = cache.find(e.path);
    if (hit != cache.end() && hit->second.size == size &&
        hit->second.mtime_ms == mtime) {
      meta = hit->second;
      ++report.cached;
    } else {
      // Cold or stale entry: read + parse + hash, then refresh the cache.
      std::string bytes;
      try {
        bytes = read_file(full.string());
        const aig::Aig aig = aig::read_aiger_string(bytes);
        meta.inputs = aig.num_inputs();
        meta.latches = aig.num_latches();
        meta.ands = aig.num_ands();
      } catch (const std::exception& err) {
        report.errors.push_back(e.path + ": " + err.what());
        continue;
      }
      meta.size = size;
      meta.mtime_ms = mtime;
      meta.hash = fnv1a_hex(bytes);
      ++report.parsed;
    }
    fresh[e.path] = meta;

    Case c;
    c.name = e.name;
    c.family = "aiger";
    c.tags = e.tags;
    c.expected = e.expected;
    c.expected_cex_length = e.cex_depth;
    c.source = full.string();
    c.num_inputs = meta.inputs;
    c.num_latches = meta.latches;
    c.num_ands = meta.ands;
    c.size_estimate = meta.ands + meta.latches;
    c.content_hash = meta.hash;
    const std::string path_copy = c.source;
    c.load = [path_copy]() { return aig::read_aiger_file(path_copy); };
    report.cases.push_back(std::move(c));
  }

  // Rewrite the cache only when something changed; entries for files no
  // longer in the manifest are dropped with it.
  if (use_cache && (report.parsed > 0 || fresh.size() != cache.size())) {
    save_cache(manifest.root, fresh);
  }
  return report;
}

ScanReport load_corpus(const std::string& path) {
  if (fs::is_directory(path)) {
    const fs::path manifest_path = fs::path(path) / kManifestFilename;
    if (fs::exists(manifest_path)) {
      return load_cases(load_manifest(manifest_path.string()));
    }
    return load_cases(scan_directory(path));
  }
  if (fs::is_regular_file(path)) {
    return load_cases(load_manifest(path));
  }
  throw std::runtime_error("corpus: no such file or directory: " + path);
}

Manifest export_suite(circuits::SuiteSize size, const std::string& dir,
                      bool binary) {
  fs::create_directories(dir);
  const std::vector<circuits::CircuitCase> cases = circuits::make_suite(size);
  Manifest m;
  m.root = dir;
  for (const circuits::CircuitCase& cc : cases) {
    ManifestEntry e;
    e.name = cc.name;
    e.path = cc.name + (binary ? ".aig" : ".aag");
    e.expected = expected_from_safe(cc.expected_safe);
    e.cex_depth = cc.expected_cex_length;
    e.tags = {cc.family};
    aig::write_aiger_file(cc.aig, (fs::path(dir) / e.path).string());
    m.entries.push_back(std::move(e));
  }
  write_manifest(m, (fs::path(dir) / kManifestFilename).string());
  return m;
}

}  // namespace pilot::corpus
