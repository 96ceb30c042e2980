#include "aig/aiger_io.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pilot::aig {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("aiger: " + message);
}

struct Header {
  bool binary = false;
  std::uint64_t m = 0, i = 0, l = 0, o = 0, a = 0, b = 0, c = 0;
};

Header read_header(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("missing header");
  std::istringstream iss(line);
  std::string magic;
  iss >> magic;
  Header h;
  if (magic == "aig") {
    h.binary = true;
  } else if (magic != "aag") {
    fail("bad magic '" + magic + "'");
  }
  if (!(iss >> h.m >> h.i >> h.l >> h.o >> h.a)) fail("truncated header");
  // Optional AIGER 1.9 extensions: B C J F.
  std::uint64_t j = 0, f = 0;
  if (iss >> h.b) {
    if (iss >> h.c) {
      if (iss >> j && j != 0) fail("justice properties not supported");
      if (iss >> f && f != 0) fail("fairness constraints not supported");
    }
  }
  return h;
}

/// Binary inputs have no section of their own, so the payload cannot bound
/// them entry by entry; they are capped at this many per payload byte plus
/// kInputSlack instead.
constexpr std::uint64_t kInputsPerByte = 8;
constexpr std::uint64_t kInputSlack = 1024;

/// Rejects a header whose counts cannot fit the `payload` bytes after it,
/// before any section vector is sized from them.  Every explicit entry (an
/// input, latch, output, bad or constraint line, or a binary AND gate)
/// takes at least two bytes.  Checking each count against what is left
/// also keeps the I+L+A sums below from overflowing.
void check_header_fits(const Header& h, std::uint64_t payload) {
  std::uint64_t entries_left = payload / 2;
  for (const std::uint64_t count :
       {h.binary ? 0 : h.i, h.l, h.o, h.b, h.c, h.a}) {
    if (count > entries_left) {
      fail("header counts need more than the " + std::to_string(payload) +
           " bytes that follow it");
    }
    entries_left -= count;
  }
  if (h.binary && h.i > kInputSlack &&
      (h.i - kInputSlack) / kInputsPerByte > payload) {
    fail("header declares " + std::to_string(h.i) + " inputs for a " +
         std::to_string(payload) + "-byte payload");
  }
  if (h.m < h.i + h.l) fail("header: M < I+L");
  if (h.binary && h.m != h.i + h.l + h.a) fail("binary header: M != I+L+A");
  if (h.m > h.i + h.l + h.a) fail("header: M > I+L+A");
}

/// Bytes left in `in`, measured without consuming them; nullopt when the
/// stream cannot seek.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

std::uint64_t read_uint_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) fail(std::string("truncated ") + what);
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(line, &pos);
    // Allow trailing fields to be handled by the caller via full parsing.
    (void)pos;
    return v;
  } catch (...) {
    fail(std::string("bad number in ") + what + ": '" + line + "'");
  }
}

/// Reads one LEB-style AIGER varint (7 bits per byte, MSB = continuation).
std::uint64_t read_varint(std::istream& in) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    const int ch = in.get();
    if (ch == EOF) fail("truncated binary and-gate section");
    value |= static_cast<std::uint64_t>(ch & 0x7F) << shift;
    if ((ch & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) fail("varint overflow");
  }
}

void write_varint(std::ostream& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.put(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

/// Shared state for translating AIGER literal codes into builder literals.
struct Translator {
  // aiger var → builder literal for the positive aiger literal.
  std::vector<AigLit> map;
  // aiger var → (rhs0, rhs1) codes for AND definitions not yet built.
  std::vector<std::array<std::uint64_t, 2>> and_defs;
  std::vector<char> is_and;
  std::vector<char> expanding;  // cycle detection during resolution

  explicit Translator(std::uint64_t max_var)
      : map(max_var + 1, kInvalidLit),
        and_defs(max_var + 1),
        is_and(max_var + 1, 0),
        expanding(max_var + 1, 0) {
    map[0] = AigLit::constant(false);
  }

  /// Resolves an AIGER literal, building AND gates on demand (iteratively,
  /// to survive very deep graphs).  Rejects combinational cycles.
  AigLit resolve(std::uint64_t code, Aig& out) {
    const std::uint64_t root_var = code >> 1;
    if (root_var >= map.size()) fail("literal exceeds max var");
    if (map[root_var] == kInvalidLit) {
      if (!is_and[root_var]) fail("undefined literal " + std::to_string(code));
      std::vector<std::uint64_t> stack{root_var};
      expanding[root_var] = 1;
      while (!stack.empty()) {
        const std::uint64_t v = stack.back();
        const auto [r0, r1] = and_defs[v];
        const std::uint64_t v0 = r0 >> 1;
        const std::uint64_t v1 = r1 >> 1;
        if (v0 >= map.size() || v1 >= map.size()) fail("fanin out of range");
        bool ready = true;
        for (const std::uint64_t fv : {v0, v1}) {
          if (map[fv] == kInvalidLit) {
            if (!is_and[fv]) fail("undefined fanin variable");
            if (expanding[fv]) fail("combinational cycle through variable " +
                                    std::to_string(fv));
            expanding[fv] = 1;
            stack.push_back(fv);
            ready = false;
          }
        }
        if (!ready) continue;
        stack.pop_back();
        expanding[v] = 0;
        if (map[v] != kInvalidLit) continue;  // resolved via another path
        const AigLit f0 = map[v0] ^ ((r0 & 1) != 0);
        const AigLit f1 = map[v1] ^ ((r1 & 1) != 0);
        map[v] = out.make_and(f0, f1);
      }
    }
    return map[root_var] ^ ((code & 1) != 0);
  }
};

LBool init_from_code(std::uint64_t code, std::uint64_t latch_code) {
  if (code == 0) return l_False;
  if (code == 1) return l_True;
  if (code == latch_code) return l_Undef;  // AIGER: init==lhs means "x"
  fail("unsupported latch reset value " + std::to_string(code));
}

Aig read_ascii(std::istream& in, const Header& h) {
  Aig out;
  Translator tr(h.m);

  std::vector<std::uint64_t> latch_codes;
  std::vector<std::uint64_t> latch_next_codes;
  // Inputs.
  for (std::uint64_t n = 0; n < h.i; ++n) {
    const std::uint64_t code = read_uint_line(in, "input");
    if ((code & 1) != 0 || code == 0) fail("invalid input literal");
    tr.map[code >> 1] = out.add_input();
  }
  // Latches (next-state resolved after AND defs are known).
  for (std::uint64_t n = 0; n < h.l; ++n) {
    std::string line;
    if (!std::getline(in, line)) fail("truncated latch section");
    std::istringstream iss(line);
    std::uint64_t code = 0, next = 0, init = 0;
    if (!(iss >> code >> next)) fail("bad latch line '" + line + "'");
    if ((code & 1) != 0 || code == 0) fail("invalid latch literal");
    LBool reset = l_False;
    if (iss >> init) reset = init_from_code(init, code);
    tr.map[code >> 1] = out.add_latch(reset);
    latch_codes.push_back(code);
    latch_next_codes.push_back(next);
  }
  std::vector<std::uint64_t> output_codes(h.o);
  for (auto& code : output_codes) code = read_uint_line(in, "output");
  std::vector<std::uint64_t> bad_codes(h.b);
  for (auto& code : bad_codes) code = read_uint_line(in, "bad");
  std::vector<std::uint64_t> constraint_codes(h.c);
  for (auto& code : constraint_codes) code = read_uint_line(in, "constraint");
  // AND definitions.
  for (std::uint64_t n = 0; n < h.a; ++n) {
    std::string line;
    if (!std::getline(in, line)) fail("truncated and section");
    std::istringstream iss(line);
    std::uint64_t lhs = 0, rhs0 = 0, rhs1 = 0;
    if (!(iss >> lhs >> rhs0 >> rhs1)) fail("bad and line '" + line + "'");
    if ((lhs & 1) != 0 || lhs == 0) fail("invalid and lhs");
    const std::uint64_t v = lhs >> 1;
    if (v >= tr.is_and.size()) fail("and lhs exceeds max var");
    if (tr.map[v] != kInvalidLit || tr.is_and[v]) fail("redefined variable");
    tr.is_and[v] = 1;
    tr.and_defs[v] = {rhs0, rhs1};
  }
  // Build every listed AND gate (even ones unreachable from the outputs) so
  // the parse is faithful to the file.
  for (std::uint64_t v = 1; v <= h.m; ++v) {
    if (tr.is_and[v]) tr.resolve(v << 1, out);
  }
  for (std::uint64_t n = 0; n < h.l; ++n) {
    out.set_next(tr.map[latch_codes[n] >> 1],
                 tr.resolve(latch_next_codes[n], out));
  }
  for (const std::uint64_t code : output_codes) {
    out.add_output(tr.resolve(code, out));
  }
  for (const std::uint64_t code : bad_codes) {
    out.add_bad(tr.resolve(code, out));
  }
  for (const std::uint64_t code : constraint_codes) {
    out.add_constraint(tr.resolve(code, out));
  }
  return out;
}

Aig read_binary(std::istream& in, const Header& h) {
  Aig out;
  Translator tr(h.m);
  // Inputs are implicit: variables 1..I.
  for (std::uint64_t n = 0; n < h.i; ++n) {
    tr.map[n + 1] = out.add_input();
  }
  // Latches are variables I+1..I+L; each line holds the next-state literal
  // and an optional reset value.
  std::vector<std::uint64_t> latch_next_codes(h.l);
  for (std::uint64_t n = 0; n < h.l; ++n) {
    std::string line;
    if (!std::getline(in, line)) fail("truncated latch section");
    std::istringstream iss(line);
    std::uint64_t next = 0, init = 0;
    if (!(iss >> next)) fail("bad latch line '" + line + "'");
    const std::uint64_t latch_code = 2 * (h.i + n + 1);
    LBool reset = l_False;
    if (iss >> init) reset = init_from_code(init, latch_code);
    tr.map[latch_code >> 1] = out.add_latch(reset);
    latch_next_codes[n] = next;
  }
  std::vector<std::uint64_t> output_codes(h.o);
  for (auto& code : output_codes) code = read_uint_line(in, "output");
  std::vector<std::uint64_t> bad_codes(h.b);
  for (auto& code : bad_codes) code = read_uint_line(in, "bad");
  std::vector<std::uint64_t> constraint_codes(h.c);
  for (auto& code : constraint_codes) code = read_uint_line(in, "constraint");
  // Binary AND section: lhs implicit and ascending, fanins delta-encoded.
  for (std::uint64_t n = 0; n < h.a; ++n) {
    const std::uint64_t lhs = 2 * (h.i + h.l + n + 1);
    const std::uint64_t delta0 = read_varint(in);
    if (delta0 > lhs) fail("binary and: rhs0 delta out of range");
    const std::uint64_t rhs0 = lhs - delta0;
    const std::uint64_t delta1 = read_varint(in);
    if (delta1 > rhs0) fail("binary and: rhs1 delta out of range");
    const std::uint64_t rhs1 = rhs0 - delta1;
    const AigLit f0 = tr.resolve(rhs0, out);
    const AigLit f1 = tr.resolve(rhs1, out);
    tr.map[lhs >> 1] = out.make_and(f0, f1);
  }
  for (std::uint64_t n = 0; n < h.l; ++n) {
    const std::uint64_t latch_code = 2 * (h.i + n + 1);
    out.set_next(tr.map[latch_code >> 1],
                 tr.resolve(latch_next_codes[n], out));
  }
  for (const std::uint64_t code : output_codes) {
    out.add_output(tr.resolve(code, out));
  }
  for (const std::uint64_t code : bad_codes) {
    out.add_bad(tr.resolve(code, out));
  }
  for (const std::uint64_t code : constraint_codes) {
    out.add_constraint(tr.resolve(code, out));
  }
  return out;
}

/// Canonical AIGER numbering for writing: inputs, then latches, then AND
/// gates in topological (creation) order.
struct Numbering {
  std::vector<std::uint64_t> code_of_node;  // positive literal code per node

  explicit Numbering(const Aig& aig) : code_of_node(aig.num_nodes(), 0) {
    std::uint64_t var = 0;
    for (const std::uint32_t n : aig.inputs()) code_of_node[n] = 2 * ++var;
    for (const std::uint32_t n : aig.latches()) code_of_node[n] = 2 * ++var;
    for (const std::uint32_t n : aig.ands()) code_of_node[n] = 2 * ++var;
  }

  [[nodiscard]] std::uint64_t code(AigLit l) const {
    return code_of_node[l.node()] | (l.negated() ? 1u : 0u);
  }
};

void write_header_and_sections(
    const Aig& aig, std::ostream& out, bool binary,
    const Numbering& num) {
  out << (binary ? "aig " : "aag ")
      << (aig.num_inputs() + aig.num_latches() + aig.num_ands()) << " "
      << aig.num_inputs() << " " << aig.num_latches() << " "
      << aig.outputs().size() << " " << aig.num_ands();
  if (!aig.bads().empty() || !aig.constraints().empty()) {
    out << " " << aig.bads().size();
    if (!aig.constraints().empty()) out << " " << aig.constraints().size();
  }
  out << "\n";
  if (!binary) {
    for (const std::uint32_t n : aig.inputs()) {
      out << num.code_of_node[n] << "\n";
    }
  }
  for (const std::uint32_t n : aig.latches()) {
    if (!binary) out << num.code_of_node[n] << " ";
    out << num.code(aig.next(n));
    const LBool init = aig.init(n);
    if (init == l_True) {
      out << " 1";
    } else if (init.is_undef()) {
      out << " " << num.code_of_node[n];
    }
    out << "\n";
  }
  for (const AigLit l : aig.outputs()) out << num.code(l) << "\n";
  for (const AigLit l : aig.bads()) out << num.code(l) << "\n";
  for (const AigLit l : aig.constraints()) out << num.code(l) << "\n";
}

}  // namespace

Aig read_aiger(std::istream& in) {
  const Header h = read_header(in);
  const std::optional<std::uint64_t> payload = remaining_bytes(in);
  if (!payload.has_value()) {
    // An unseekable stream: buffer the rest so its length is known.
    std::ostringstream rest;
    rest << in.rdbuf();
    std::istringstream buffered(rest.str());
    check_header_fits(h, rest.str().size());
    return h.binary ? read_binary(buffered, h) : read_ascii(buffered, h);
  }
  check_header_fits(h, *payload);
  return h.binary ? read_binary(in, h) : read_ascii(in, h);
}

Aig read_aiger_string(const std::string& text) {
  std::istringstream iss(text);
  return read_aiger(iss);
}

Aig read_aiger_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "'");
  return read_aiger(in);
}

void write_aiger_ascii(const Aig& aig, std::ostream& out) {
  const Numbering num(aig);
  write_header_and_sections(aig, out, /*binary=*/false, num);
  for (const std::uint32_t n : aig.ands()) {
    std::uint64_t rhs0 = num.code(aig.fanin0(n));
    std::uint64_t rhs1 = num.code(aig.fanin1(n));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    out << num.code_of_node[n] << " " << rhs0 << " " << rhs1 << "\n";
  }
}

void write_aiger_binary(const Aig& aig, std::ostream& out) {
  const Numbering num(aig);
  write_header_and_sections(aig, out, /*binary=*/true, num);
  for (const std::uint32_t n : aig.ands()) {
    const std::uint64_t lhs = num.code_of_node[n];
    std::uint64_t rhs0 = num.code(aig.fanin0(n));
    std::uint64_t rhs1 = num.code(aig.fanin1(n));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    write_varint(out, lhs - rhs0);
    write_varint(out, rhs0 - rhs1);
  }
}

std::string to_aiger_ascii(const Aig& aig) {
  std::ostringstream oss;
  write_aiger_ascii(aig, oss);
  return oss.str();
}

std::string to_aiger_binary(const Aig& aig) {
  std::ostringstream oss;
  write_aiger_binary(aig, oss);
  return oss.str();
}

void write_aiger_file(const Aig& aig, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open '" + path + "' for writing");
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".aag") {
    write_aiger_ascii(aig, out);
  } else {
    write_aiger_binary(aig, out);
  }
}

}  // namespace pilot::aig
