#include "ic3/config.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <variant>

#include "ic3/generalizer.hpp"

namespace pilot::ic3 {

namespace {

/// One settable key: the Config field it writes and, for integer fields,
/// the inclusive range of accepted values.
struct Key {
  const char* name;
  std::variant<bool Config::*, int Config::*, std::string Config::*> field;
  int lo = 0;
  int hi = 0;
};

/// The key table, sorted by name.  Only settings some caller varies are
/// listed: the CLI knobs and the SuYC24 §4.3 ablations.
const std::array<Key, 5> kKeys{{
    {"clear_failure_push_on_propagate",
     &Config::clear_failure_push_on_propagate},
    {"gen", &Config::gen_spec},
    {"predict_core_shrink", &Config::predict_core_shrink},
    {"predict_max_extra_lits", &Config::predict_max_extra_lits, 1, 2},
    {"predict_refine_diff", &Config::predict_refine_diff},
}};

const Key* find_key(const std::string& name) {
  const auto it = std::find_if(kKeys.begin(), kKeys.end(),
                               [&](const Key& k) { return name == k.name; });
  return it == kKeys.end() ? nullptr : &*it;
}

[[noreturn]] void reject(const std::string& item, const std::string& why) {
  std::string msg = "--set " + item + ": " + why + "; valid keys:";
  for (const Key& k : kKeys) msg += std::string(" ") + k.name;
  throw std::invalid_argument(msg);
}

/// The canonical form of `value` for `key`; rejects out-of-range values.
std::string canonical_value(const Key& key, const std::string& value,
                            const std::string& item) {
  if (std::holds_alternative<bool Config::*>(key.field)) {
    if (value != "on" && value != "off") reject(item, "expected on|off");
    return value;
  }
  if (std::holds_alternative<std::string Config::*>(key.field)) {
    try {
      validate_gen_spec(value);  // gen is the one text key
    } catch (const std::invalid_argument& e) {
      reject(item, e.what());
    }
    return value;
  }
  const std::string range = "expected an integer in [" +
                            std::to_string(key.lo) + ", " +
                            std::to_string(key.hi) + "]";
  std::size_t used = 0;
  int n = 0;
  try {
    n = std::stoi(value, &used);
  } catch (const std::exception&) {
    reject(item, range);
  }
  if (used != value.size() || n < key.lo || n > key.hi) reject(item, range);
  return std::to_string(n);
}

}  // namespace

ConfigPatch ConfigPatch::parse(const std::vector<std::string>& items) {
  ConfigPatch patch;
  for (const std::string& item : items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) reject(item, "expected key=value");
    const std::string name = item.substr(0, eq);
    const Key* key = find_key(name);
    if (key == nullptr) reject(item, "unknown key '" + name + "'");
    patch.values_[name] = canonical_value(*key, item.substr(eq + 1), item);
  }
  return patch;
}

std::vector<std::string> ConfigPatch::keys() {
  std::vector<std::string> out;
  for (const Key& k : kKeys) out.emplace_back(k.name);
  return out;
}

void ConfigPatch::apply(Config& cfg) const {
  for (const auto& [name, value] : values_) {
    const auto& field = find_key(name)->field;
    if (const auto* flag = std::get_if<bool Config::*>(&field)) {
      cfg.**flag = value == "on";
    } else if (const auto* number = std::get_if<int Config::*>(&field)) {
      cfg.**number = std::stoi(value);
    } else {
      cfg.*std::get<std::string Config::*>(field) = value;
    }
  }
}

std::vector<std::string> ConfigPatch::items() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) out.push_back(name + "=" + value);
  return out;
}

}  // namespace pilot::ic3
