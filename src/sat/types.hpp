/// \file types.hpp
/// Core SAT domain types: variables, literals, and three-valued booleans.
///
/// The encoding follows the MiniSat convention: a literal packs a variable
/// index and a sign into one int (`2*var + sign`), so literals index arrays
/// directly and negation is a single XOR.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pilot::sat {

/// Variable index, 0-based.  Negative values are reserved for "undefined".
using Var = std::int32_t;

inline constexpr Var kVarUndef = -1;

/// A literal: variable plus sign.  sign()==true means the negated phase.
class Lit {
 public:
  constexpr Lit() = default;

  /// Builds a literal from a variable and a sign (true = negated).
  static constexpr Lit make(Var v, bool sign = false) {
    Lit l;
    l.code_ = (v << 1) | static_cast<std::int32_t>(sign);
    return l;
  }

  /// Reconstructs a literal from its dense index (see index()).
  static constexpr Lit from_index(std::int32_t index) {
    Lit l;
    l.code_ = index;
    return l;
  }

  [[nodiscard]] constexpr Var var() const { return code_ >> 1; }
  [[nodiscard]] constexpr bool sign() const { return (code_ & 1) != 0; }

  /// Dense non-negative index usable as an array subscript.
  [[nodiscard]] constexpr std::int32_t index() const { return code_; }

  [[nodiscard]] constexpr bool is_undef() const { return code_ < 0; }

  constexpr Lit operator~() const {
    Lit l;
    l.code_ = code_ ^ 1;
    return l;
  }

  /// Same variable with requested sign applied on top (xor).
  constexpr Lit operator^(bool flip) const {
    Lit l;
    l.code_ = code_ ^ static_cast<std::int32_t>(flip);
    return l;
  }

  constexpr auto operator<=>(const Lit&) const = default;

  /// Human-readable form, e.g. "3" / "-3" (1-based like DIMACS).
  [[nodiscard]] std::string to_string() const {
    std::string s = std::to_string(var() + 1);
    if (sign()) s.insert(s.begin(), '-');
    return s;
  }

 private:
  std::int32_t code_ = -2;
};

inline constexpr Lit kLitUndef{};

/// Three-valued boolean: true / false / undefined.
class LBool {
 public:
  constexpr LBool() = default;
  explicit constexpr LBool(std::uint8_t code) : code_(code) {}
  explicit constexpr LBool(bool b) : code_(b ? 0 : 1) {}

  [[nodiscard]] constexpr bool is_true() const { return code_ == 0; }
  [[nodiscard]] constexpr bool is_false() const { return code_ == 1; }
  [[nodiscard]] constexpr bool is_undef() const { return code_ >= 2; }

  constexpr bool operator==(const LBool& o) const {
    // All "undefined" codes compare equal.
    return (is_undef() && o.is_undef()) || code_ == o.code_;
  }

  /// Flips true<->false when `flip`; undefined is preserved.
  constexpr LBool operator^(bool flip) const {
    if (is_undef()) return *this;
    return LBool(static_cast<std::uint8_t>(code_ ^ (flip ? 1 : 0)));
  }

  [[nodiscard]] constexpr std::uint8_t code() const { return code_; }

 private:
  std::uint8_t code_ = 2;
};

inline constexpr LBool l_True{std::uint8_t{0}};
inline constexpr LBool l_False{std::uint8_t{1}};
inline constexpr LBool l_Undef{std::uint8_t{2}};

/// Outcome of a solve() call.
enum class SolveResult { kSat, kUnsat, kUnknown };

}  // namespace pilot::sat

template <>
struct std::hash<pilot::sat::Lit> {
  std::size_t operator()(pilot::sat::Lit l) const noexcept {
    return std::hash<std::int32_t>{}(l.index());
  }
};
