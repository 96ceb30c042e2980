/// \file certificate.hpp
/// Independently checkable verdict certificates.
///
/// Every definitive verdict the engines produce reduces to a small artifact
/// that a checker with *no shared code path* can validate:
///  * SAFE via IC3/PDR   → a clausal inductive invariant over the latches
///    (the property ∧ proven frame clauses of the fixpoint frame), plus an
///    optional self-contained AIGER certificate circuit whose validity is
///    three combinational checks: Init ⊆ Inv, Inv ∧ T ⇒ Inv′, Inv ⇒ ¬Bad.
///  * SAFE via k-induction → the bound k and whether the simple-path
///    strengthening was used; re-checkable by re-running the base cases
///    0..k and the step query at k.
///  * UNSAFE → the HWMCC witness text, re-checkable *solver-free* by
///    replaying it through aig::BitSimulator and confirming the bad output
///    fires.
///
/// `check()` deliberately runs a different solver configuration than the
/// engines (trail reuse off, inprocessing off, perturbed seed with random
/// decisions, and a two-frame Unroller encoding instead of the engines'
/// SolverManager install) so a bug in the optimized hot path cannot vouch
/// for itself.  Certificates serialize to a line-oriented text format over
/// latch *indices*, which `TransitionSystem::from_aig` reproduces
/// deterministically — a certificate stays valid across processes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "ic3/engine.hpp"
#include "ic3/witness.hpp"
#include "ts/transition_system.hpp"

namespace pilot::cert {

/// Outcome of a certificate check; `ok` plus a human-readable reason.
struct CheckOutcome {
  bool ok = true;
  std::string reason;
};

struct Certificate {
  enum class Kind { kInvariant, kKinduction, kWitness };

  Kind kind = Kind::kInvariant;
  std::size_t property_index = 0;
  /// Latch count of the model the certificate was emitted for; a mismatch
  /// at check time rejects the certificate before any solving.
  std::size_t num_latches = 0;

  /// kInvariant: the invariant clauses, each literal encoded as
  /// ±(latch_index + 1) — positive means "latch is 1" satisfies the clause.
  /// The property is implicit: check() verifies clauses ∧ bad is UNSAT.
  std::vector<std::vector<int>> clauses;

  /// kKinduction: the bound the step query closed at, and whether the
  /// simple-path (all states distinct) strengthening was in force.
  int k = -1;
  bool simple_path = true;

  /// kWitness: the HWMCC/AIGER witness text ("1\nb<idx>\n<latches>\n...").
  std::string witness;
};

[[nodiscard]] const char* to_string(Certificate::Kind kind);

// ----- emission --------------------------------------------------------------

/// Clausal certificate from an IC3-style inductive invariant.  Throws
/// std::invalid_argument if a lemma literal is not a state variable.
[[nodiscard]] Certificate from_invariant(const ts::TransitionSystem& ts,
                                         const ic3::InductiveInvariant& inv,
                                         std::size_t property_index = 0);

/// k-induction certificate (k ≥ 0).
[[nodiscard]] Certificate from_kinduction(const ts::TransitionSystem& ts,
                                          int k, bool simple_path,
                                          std::size_t property_index = 0);

/// Witness certificate wrapping the HWMCC rendering of an UNSAFE trace.
[[nodiscard]] Certificate from_trace(const ts::TransitionSystem& ts,
                                     const ic3::Trace& trace,
                                     std::size_t property_index = 0);

/// Builds the certificate matching a definitive verdict, or nullopt (with
/// `why_none` set) when the result carries no certifiable payload — e.g. a
/// backend claiming SAFE without an invariant or a k-induction bound.
[[nodiscard]] std::optional<Certificate> from_verdict(
    const ts::TransitionSystem& ts, ic3::Verdict verdict,
    const std::optional<ic3::InductiveInvariant>& invariant,
    const std::optional<ic3::Trace>& trace, int kind_k, bool kind_simple_path,
    std::size_t property_index, std::string* why_none);

// ----- serialization ---------------------------------------------------------

/// Line-oriented text form ("pilot-cert v1" header; see certificate.cpp).
[[nodiscard]] std::string to_text(const Certificate& cert);

/// Parses the text form.  On failure returns nullopt and sets `error` to a
/// message naming the offending line and token.
[[nodiscard]] std::optional<Certificate> parse(const std::string& text,
                                               std::string* error);

/// File variants; `load` reports open/parse failures through `error`.
bool save(const Certificate& cert, const std::string& path);
[[nodiscard]] std::optional<Certificate> load(const std::string& path,
                                              std::string* error);

// ----- independent checking --------------------------------------------------

/// Validates `cert` against `ts` with the independent configuration
/// described in the file comment.  `seed` perturbs the checker's variable
/// order (any value works; pass the run seed so failures reproduce).
[[nodiscard]] CheckOutcome check(const ts::TransitionSystem& ts,
                                 const Certificate& cert,
                                 std::uint64_t seed = 0);

/// Self-contained AIGER certificate circuit for an invariant certificate:
/// a combinational AIG over (latch values, primary inputs) with three bad
/// outputs — Init ∧ ¬Inv, Inv ∧ ¬Inv′, Inv ∧ Bad — each of which must be
/// unsatisfiable for the certificate to hold.  Any external AIGER SAT tool
/// can discharge them.  Throws std::invalid_argument for other kinds.
[[nodiscard]] aig::Aig certificate_circuit(const ts::TransitionSystem& ts,
                                           const Certificate& cert);

}  // namespace pilot::cert

namespace pilot::ic3 {
/// The checker's outcome under its older name, which perfbench/harness.cpp
/// still spells.
using CheckOutcome = cert::CheckOutcome;
}  // namespace pilot::ic3
