#include "ic3/config.hpp"

#include <stdexcept>

#include "ic3/generalizer.hpp"

namespace pilot::ic3 {

namespace {

[[noreturn]] void reject(const std::string& item, const std::string& why) {
  throw std::invalid_argument("--set " + item + ": " + why +
                              "; valid keys: gen");
}

}  // namespace

ConfigPatch ConfigPatch::parse(const std::vector<std::string>& items) {
  ConfigPatch patch;
  for (const std::string& item : items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) reject(item, "expected key=value");
    const std::string name = item.substr(0, eq);
    if (name != "gen") reject(item, "unknown key '" + name + "'");
    try {
      patch.gen_spec_ = canonical_gen_spec(item.substr(eq + 1));
    } catch (const std::invalid_argument& e) {
      reject(item, e.what());
    }
  }
  return patch;
}

std::vector<std::string> ConfigPatch::keys() { return {"gen"}; }

void ConfigPatch::apply(Config& cfg) const {
  if (gen_spec_.has_value()) cfg.gen_spec = *gen_spec_;
}

std::vector<std::string> ConfigPatch::items() const {
  if (!gen_spec_.has_value()) return {};
  return {"gen=" + *gen_spec_};
}

}  // namespace pilot::ic3
