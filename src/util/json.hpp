/// \file json.hpp
/// Minimal JSON value type, parser, and serializer — no third-party
/// dependency, just what the corpus subsystem needs: manifests, the parse
/// metadata cache, and the JSONL results database (corpus/results_db.hpp).
///
/// Numbers are stored as double; integer counters round-trip exactly up to
/// 2^53, which covers every statistic the results schema records.  Object
/// keys are kept in a std::map, so serialization order is deterministic
/// (sorted by key) — diffs of emitted files are stable across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace pilot::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  /// One template for every arithmetic type (int, size_t, uint64_t, …);
  /// explicit double/bool constructors above take precedence.
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  Value(T i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] Type type() const {
    return static_cast<Type>(data_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Loose accessors: return the fallback on a type mismatch, so readers of
  /// externally-edited files degrade gracefully instead of throwing.
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(data_) : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? std::get<double>(data_) : fallback;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(std::get<double>(data_))
                       : fallback;
  }
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t fallback = 0) const {
    return is_number() && std::get<double>(data_) >= 0.0
               ? static_cast<std::uint64_t>(std::get<double>(data_))
               : fallback;
  }
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object lookup; returns a shared null Value when absent or not an
  /// object, so chained lookups are safe: v.at("a").at("b").as_int().
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }

  /// Compact single-line serialization (the JSONL row format).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      data_;
};

/// Parses one JSON document.  Throws std::runtime_error with a byte-offset
/// annotated message on malformed input or trailing garbage.
[[nodiscard]] Value parse(const std::string& text);

/// Parses one document from `text` starting at `pos`; advances `pos` past
/// the value and any trailing whitespace.  The JSONL reader's primitive.
[[nodiscard]] Value parse_at(const std::string& text, std::size_t* pos);

/// Serializes a string with JSON escaping, including the quotes.
[[nodiscard]] std::string escape(const std::string& text);

/// What for_each_jsonl_line read.
struct JsonlRead {
  /// Unparsable final lines skipped as a torn tail (0 or 1).
  std::size_t torn = 0;
  /// The last line has no trailing newline: an append must start a fresh
  /// line first or it joins that line.
  bool ends_mid_line = false;
  /// Byte offset where the last line starts; truncating there drops a
  /// torn tail.
  std::uint64_t last_line_offset = 0;
};

/// Calls `on_line` on every non-blank line of a JSONL stream.  A line
/// `on_line` throws on fails the read as "<source>:<line>: <what>" —
/// except a final line without a trailing newline, which is what a writer
/// killed mid-append leaves behind: that torn tail is skipped with a
/// warning and counted instead.
JsonlRead for_each_jsonl_line(
    std::istream& in, const std::string& source,
    const std::function<void(const std::string&)>& on_line);

/// Readies the JSONL file `path`, last read as `read`, for an append: cuts
/// a torn final line off at read.last_line_offset, or ends an intact last
/// line that lacks its newline.  Appending after a torn tail would leave
/// it mid-file, where the next read rejects it.
void end_jsonl_tail(const std::string& path, const JsonlRead& read);

}  // namespace pilot::json
