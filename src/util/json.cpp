#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <stdexcept>

#include "util/log.hpp"

namespace pilot::json {

namespace {

const Value kNullValue{};
const std::string kEmptyString{};
const Array kEmptyArray{};
const Object kEmptyObject{};

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " +
                           std::to_string(pos));
}

void skip_ws(const std::string& s, std::size_t* pos) {
  while (*pos < s.size()) {
    const char c = s[*pos];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++*pos;
    } else {
      return;
    }
  }
}

void append_utf8(std::string* out, unsigned cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

std::string parse_string(const std::string& s, std::size_t* pos) {
  if (s[*pos] != '"') fail(*pos, "expected string");
  ++*pos;
  std::string out;
  while (true) {
    if (*pos >= s.size()) fail(*pos, "unterminated string");
    const char c = s[*pos];
    if (c == '"') {
      ++*pos;
      return out;
    }
    if (c == '\\') {
      ++*pos;
      if (*pos >= s.size()) fail(*pos, "unterminated escape");
      const char e = s[*pos];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (*pos + 4 >= s.size()) fail(*pos, "truncated \\u escape");
          unsigned cp = 0;
          for (int i = 1; i <= 4; ++i) {
            const char h = s[*pos + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(*pos, "bad \\u escape digit");
            }
          }
          *pos += 4;
          // Surrogate pairs are passed through as two 3-byte sequences;
          // the corpus schema never emits non-BMP characters.
          append_utf8(&out, cp);
          break;
        }
        default: fail(*pos, "unknown escape");
      }
      ++*pos;
      continue;
    }
    out.push_back(c);
    ++*pos;
  }
}

Value parse_value(const std::string& s, std::size_t* pos);

Value parse_number(const std::string& s, std::size_t* pos) {
  const char* start = s.c_str() + *pos;
  char* end = nullptr;
  const double d = std::strtod(start, &end);
  if (end == start) fail(*pos, "bad number");
  *pos += static_cast<std::size_t>(end - start);
  return Value(d);
}

Value parse_value(const std::string& s, std::size_t* pos) {
  skip_ws(s, pos);
  if (*pos >= s.size()) fail(*pos, "unexpected end of input");
  const char c = s[*pos];
  if (c == '"') return Value(parse_string(s, pos));
  if (c == '{') {
    ++*pos;
    Object obj;
    skip_ws(s, pos);
    if (*pos < s.size() && s[*pos] == '}') {
      ++*pos;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws(s, pos);
      std::string key = parse_string(s, pos);
      skip_ws(s, pos);
      if (*pos >= s.size() || s[*pos] != ':') fail(*pos, "expected ':'");
      ++*pos;
      obj[std::move(key)] = parse_value(s, pos);
      skip_ws(s, pos);
      if (*pos >= s.size()) fail(*pos, "unterminated object");
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == '}') {
        ++*pos;
        return Value(std::move(obj));
      }
      fail(*pos, "expected ',' or '}'");
    }
  }
  if (c == '[') {
    ++*pos;
    Array arr;
    skip_ws(s, pos);
    if (*pos < s.size() && s[*pos] == ']') {
      ++*pos;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(s, pos));
      skip_ws(s, pos);
      if (*pos >= s.size()) fail(*pos, "unterminated array");
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == ']') {
        ++*pos;
        return Value(std::move(arr));
      }
      fail(*pos, "expected ',' or ']'");
    }
  }
  if (s.compare(*pos, 4, "true") == 0) {
    *pos += 4;
    return Value(true);
  }
  if (s.compare(*pos, 5, "false") == 0) {
    *pos += 5;
    return Value(false);
  }
  if (s.compare(*pos, 4, "null") == 0) {
    *pos += 4;
    return Value();
  }
  return parse_number(s, pos);
}

void dump_value(const Value& v, std::string* out) {
  switch (v.type()) {
    case Value::Type::kNull: *out += "null"; return;
    case Value::Type::kBool: *out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::kNumber: {
      const double d = v.as_double();
      if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        *out += buf;
      } else if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        *out += buf;
      } else {
        *out += "null";  // JSON has no inf/nan
      }
      return;
    }
    case Value::Type::kString: *out += escape(v.as_string()); return;
    case Value::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) *out += ',';
        first = false;
        dump_value(e, out);
      }
      *out += ']';
      return;
    }
    case Value::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, val] : v.as_object()) {
        if (!first) *out += ',';
        first = false;
        *out += escape(key);
        *out += ':';
        dump_value(val, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

const std::string& Value::as_string() const {
  return is_string() ? std::get<std::string>(data_) : kEmptyString;
}

const Array& Value::as_array() const {
  return is_array() ? std::get<Array>(data_) : kEmptyArray;
}

const Object& Value::as_object() const {
  return is_object() ? std::get<Object>(data_) : kEmptyObject;
}

const Value& Value::at(const std::string& key) const {
  if (!is_object()) return kNullValue;
  const Object& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? kNullValue : it->second;
}

std::string Value::dump() const {
  std::string out;
  dump_value(*this, &out);
  return out;
}

Value parse(const std::string& text) {
  std::size_t pos = 0;
  Value v = parse_at(text, &pos);
  if (pos != text.size()) fail(pos, "trailing characters");
  return v;
}

Value parse_at(const std::string& text, std::size_t* pos) {
  Value v = parse_value(text, pos);
  skip_ws(text, pos);
  return v;
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out += '"';
  return out;
}

JsonlRead for_each_jsonl_line(
    std::istream& in, const std::string& source,
    const std::function<void(const std::string&)>& on_line) {
  JsonlRead read;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline only hits end-of-file on a line with no trailing newline.
    read.ends_mid_line = in.eof();
    read.last_line_offset = offset;
    offset += line.size() + (read.ends_mid_line ? 0 : 1);
    // Tolerate blank lines (e.g. from `cat`-merged files).
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      on_line(line);
    } catch (const std::exception& e) {
      const std::string where = source + ":" + std::to_string(line_no);
      if (!read.ends_mid_line) {
        throw std::runtime_error(where + ": " + e.what());
      }
      PILOT_WARN(where << ": skipping torn final line (" << e.what() << ")");
      ++read.torn;
    }
  }
  return read;
}

}  // namespace pilot::json
