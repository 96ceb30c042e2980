#include "util/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace pilot {
namespace {

bool parse_int(const std::string& text, std::int64_t* out) {
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(text, &pos);
    if (pos != text.size()) return false;
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_double(const std::string& text, double* out) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) return false;
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

void OptionParser::add_flag(const std::string& name, bool* target,
                            std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "flag";
  spec.apply_flag = [target](bool value) { *target = value; };
  specs_[name] = std::move(spec);
}

void OptionParser::add_int(const std::string& name, std::int64_t* target,
                           std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "int";
  spec.apply = [target](const std::string& text) {
    return parse_int(text, target);
  };
  specs_[name] = std::move(spec);
}

void OptionParser::add_double(const std::string& name, double* target,
                              std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "double";
  spec.apply = [target](const std::string& text) {
    return parse_double(text, target);
  };
  specs_[name] = std::move(spec);
}

void OptionParser::add_opt_double(const std::string& name, double* target,
                                  double bare_value, std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "opt-double";
  spec.apply = [target](const std::string& text) {
    return parse_double(text, target);
  };
  spec.apply_flag = [target, bare_value](bool) { *target = bare_value; };
  specs_[name] = std::move(spec);
}

void OptionParser::add_string(const std::string& name, std::string* target,
                              std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "string";
  spec.apply = [target](const std::string& text) {
    *target = text;
    return true;
  };
  specs_[name] = std::move(spec);
}

void OptionParser::add_list(const std::string& name,
                            std::vector<std::string>* target,
                            std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "list";
  spec.apply = [target](const std::string& text) {
    target->push_back(text);
    return true;
  };
  specs_[name] = std::move(spec);
}

void OptionParser::add_choice(const std::string& name, std::string* target,
                              std::vector<std::string> choices,
                              std::string help) {
  Spec spec;
  spec.help = std::move(help);
  spec.kind = "choice";
  spec.choices = choices;
  spec.apply = [target, choices](const std::string& text) {
    if (std::find(choices.begin(), choices.end(), text) == choices.end()) {
      return false;
    }
    *target = text;
    return true;
  };
  specs_[name] = std::move(spec);
}

bool OptionParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    // `--name=value` form.
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    bool flag_value = true;
    auto it = specs_.find(name);
    if (it == specs_.end() && name.rfind("no-", 0) == 0) {
      it = specs_.find(name.substr(3));
      if (it != specs_.end() && it->second.kind == "flag") flag_value = false;
    }
    if (it == specs_.end()) {
      std::fprintf(stderr, "unknown option --%s\n%s", name.c_str(),
                   help_text().c_str());
      return false;
    }
    const Spec& spec = it->second;
    if (spec.kind == "flag") {
      if (inline_value) {
        flag_value = (*inline_value == "true" || *inline_value == "1");
      }
      spec.apply_flag(flag_value);
      continue;
    }
    // Optional-value options: take the value only from the `=` form, so
    // bare `--name` never swallows a following positional.
    if (spec.kind == "opt-double" && !inline_value) {
      spec.apply_flag(true);
      continue;
    }
    std::string value;
    if (inline_value) {
      value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option --%s expects a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!spec.apply(value)) {
      std::fprintf(stderr, "invalid value '%s' for option --%s\n",
                   value.c_str(), name.c_str());
      return false;
    }
  }
  return true;
}

std::string OptionParser::help_text() const {
  std::ostringstream oss;
  oss << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    oss << "  --" << name;
    if (spec.kind == "choice") {
      oss << " {";
      for (std::size_t i = 0; i < spec.choices.size(); ++i) {
        if (i > 0) oss << ",";
        oss << spec.choices[i];
      }
      oss << "}";
    } else if (spec.kind == "opt-double") {
      oss << "[=<double>]";
    } else if (spec.kind == "list") {
      oss << " <string> (repeatable)";
    } else if (spec.kind != "flag") {
      oss << " <" << spec.kind << ">";
    }
    oss << "\n      " << spec.help << "\n";
  }
  return oss.str();
}

}  // namespace pilot
