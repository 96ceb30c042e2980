/// \file transition_system.hpp
/// Boolean transition system S = (X, Y, I, T) extracted from an AIG, with a
/// fixed CNF encoding shared by every SAT solver instance in the checker.
///
/// SAT variable layout (stable across solvers so cubes can be exchanged):
///   var n           — current-step value of AIG node n (inputs Y, latches X,
///                     AND gates, and the constant node 0)
///   var N + i       — next-step value X' of the i-th latch
/// where N = number of AIG nodes.  install() creates exactly these variables
/// in a fresh solver and adds the transition relation
///   T(X, Y, X') = Tseitin(AND gates) ∧ (X'_i ↔ next_i(X,Y)) ∧ constraints
/// plus the unit literal fixing node 0 to false.
///
/// The property is normalized to a *bad cone*: bad = B ∧ ⋀ constraints,
/// built inside the AIG, so `bad()` is a plain literal over current-step
/// variables.  Safety means bad is unreachable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace pilot::ts {

using aig::Aig;
using aig::AigLit;
using sat::LBool;
using sat::Lit;
using sat::Var;

class TransitionSystem {
 public:
  /// Builds a transition system for property `property_index` of `aig`.
  /// AIGER 1.9 bad states are preferred; if the AIG declares none, the
  /// output with that index is interpreted as a bad signal (HWMCC'10-style).
  /// When `use_coi` holds, the circuit is first reduced to the cone of
  /// influence of the property and the constraints.
  static TransitionSystem from_aig(const Aig& aig, std::size_t property_index = 0,
                                   bool use_coi = true);

  /// The (possibly COI-reduced) circuit this system encodes.
  [[nodiscard]] const Aig& aig() const { return aig_; }

  // ----- SAT encoding ------------------------------------------------------

  /// Number of SAT variables install() creates.
  [[nodiscard]] int num_encoding_vars() const {
    return static_cast<int>(aig_.num_nodes() + aig_.num_latches());
  }

  /// Creates the encoding variables in `solver` (which must be fresh) and
  /// adds the transition relation.  Callers may create additional variables
  /// afterwards (e.g. activation literals).
  void install(sat::Solver& solver) const;

  /// Installs only the current-step combinational logic (no X' definitions);
  /// install() starts with it.
  void install_combinational(sat::Solver& solver) const;

  /// Current-step literal of an AIG literal.
  [[nodiscard]] Lit cur(AigLit l) const {
    return Lit::make(static_cast<Var>(l.node()), l.negated());
  }

  /// Bad-cone literal (current step).
  [[nodiscard]] Lit bad() const { return bad_; }

  // ----- state variables ---------------------------------------------------

  [[nodiscard]] std::size_t num_latches() const { return aig_.num_latches(); }
  [[nodiscard]] std::size_t num_inputs() const { return aig_.num_inputs(); }

  /// SAT variable of the i-th latch (current step).
  [[nodiscard]] Var state_var(std::size_t latch_index) const {
    return static_cast<Var>(aig_.latches()[latch_index]);
  }
  /// SAT variable of the i-th latch at the next step (X').
  [[nodiscard]] Var next_state_var(std::size_t latch_index) const {
    return static_cast<Var>(aig_.num_nodes() + latch_index);
  }
  /// SAT variable of the i-th primary input.
  [[nodiscard]] Var input_var(std::size_t input_index) const {
    return static_cast<Var>(aig_.inputs()[input_index]);
  }

  /// Latch index of a current-step state variable, or -1 if `v` is not one.
  [[nodiscard]] int latch_index_of(Var v) const {
    return v < static_cast<Var>(latch_index_.size()) ? latch_index_[v] : -1;
  }
  [[nodiscard]] bool is_state_var(Var v) const {
    return latch_index_of(v) >= 0;
  }

  /// Translates a current-step state literal to the corresponding X' literal.
  [[nodiscard]] Lit prime(Lit state_lit) const {
    const int idx = latch_index_of(state_lit.var());
    return Lit::make(next_state_var(static_cast<std::size_t>(idx)),
                     state_lit.sign());
  }

  // ----- initial states ----------------------------------------------------

  /// Unit literals describing I (one per latch with a defined reset value).
  [[nodiscard]] const std::vector<Lit>& init_literals() const {
    return init_literals_;
  }

  /// Reset value of a state variable (l_Undef if uninitialized or not a
  /// state variable).
  [[nodiscard]] LBool init_value(Var v) const;

  /// True iff the cube (over state variables) shares at least one state
  /// with I.  Exact because I is a cube.
  [[nodiscard]] bool cube_intersects_init(std::span<const Lit> cube) const;

 private:
  TransitionSystem() = default;

  Aig aig_;
  Lit bad_;
  std::vector<Lit> init_literals_;
  std::vector<int> latch_index_;  // current-step var → latch index or -1
};

}  // namespace pilot::ts
