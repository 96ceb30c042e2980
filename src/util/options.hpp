/// \file options.hpp
/// A small declarative command-line flag parser.
///
/// Examples and bench harnesses register typed flags (`--budget-ms 2000`,
/// `--predict`, `--set gen=ctg`) and get parsing, `--help` text, and validation
/// without a third-party dependency.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pilot {

/// Declarative flag set.  Register flags bound to variables, then parse().
class OptionParser {
 public:
  explicit OptionParser(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Boolean flag: `--name` sets true, `--no-name` sets false.
  void add_flag(const std::string& name, bool* target, std::string help);

  /// Integer-valued option: `--name 42`.
  void add_int(const std::string& name, std::int64_t* target, std::string help);

  /// Double-valued option: `--name 0.5`.
  void add_double(const std::string& name, double* target, std::string help);

  /// Double-valued option with an optional value: bare `--name` stores
  /// `bare_value`, `--name=0.5` stores 0.5.  The value must be attached with
  /// `=` — a following token is never consumed, so positionals stay
  /// unambiguous (`pilot --progress model.aag`).
  void add_opt_double(const std::string& name, double* target,
                      double bare_value, std::string help);

  /// String-valued option: `--name value`.
  void add_string(const std::string& name, std::string* target,
                  std::string help);

  /// Repeatable string option: every `--name value` appends to `target`.
  void add_list(const std::string& name, std::vector<std::string>* target,
                std::string help);

  /// Enumerated string option restricted to `choices`.
  void add_choice(const std::string& name, std::string* target,
                  std::vector<std::string> choices, std::string help);

  /// Parses argv.  Returns false (after printing a message) on error or when
  /// `--help` was requested.  Non-flag arguments are collected in
  /// positional().
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Renders the `--help` text.
  [[nodiscard]] std::string help_text() const;

 private:
  struct Spec {
    std::string help;
    std::string kind;  // "flag", "int", "double", "opt-double", "string",
                       // "list", "choice"
    std::vector<std::string> choices;
    std::function<bool(const std::string&)> apply;  // empty for flags
    std::function<void(bool)> apply_flag;           // flags only
  };

  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> positional_;
};

}  // namespace pilot
