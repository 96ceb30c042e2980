#include "ts/transition_system.hpp"

#include <stdexcept>

namespace pilot::ts {

TransitionSystem TransitionSystem::from_aig(const Aig& source,
                                            std::size_t property_index,
                                            bool use_coi) {
  // Select the property signal: AIGER 1.9 bad state if present, otherwise
  // fall back to an output (pre-1.9 model checking convention).
  AigLit bad_sig;
  if (property_index < source.bads().size()) {
    bad_sig = source.bads()[property_index];
  } else if (source.bads().empty() &&
             property_index < source.outputs().size()) {
    bad_sig = source.outputs()[property_index];
  } else {
    throw std::out_of_range("transition system: no such property");
  }

  // Work on a copy so we can synthesize the bad cone inside the AIG.
  Aig working = source;
  std::vector<AigLit> bad_terms{bad_sig};
  for (const AigLit c : working.constraints()) bad_terms.push_back(c);
  const AigLit bad_cone = working.make_and_n(bad_terms);

  TransitionSystem ts;
  if (use_coi) {
    std::vector<AigLit> roots{bad_cone};
    for (const AigLit c : working.constraints()) roots.push_back(c);
    aig::LitMap map;
    ts.aig_ = aig::extract_coi(working, roots, &map);
    ts.bad_ = ts.cur(aig::map_lit(bad_cone, map));
    for (const AigLit c : working.constraints()) {
      ts.aig_.add_constraint(aig::map_lit(c, map));
    }
  } else {
    ts.aig_ = working;
    ts.bad_ = ts.cur(bad_cone);
  }

  ts.latch_index_.assign(ts.aig_.num_nodes(), -1);
  for (std::size_t i = 0; i < ts.aig_.latches().size(); ++i) {
    const std::uint32_t node = ts.aig_.latches()[i];
    ts.latch_index_[node] = static_cast<int>(i);
    const LBool init = ts.aig_.init(node);
    if (!init.is_undef()) {
      ts.init_literals_.push_back(
          Lit::make(static_cast<Var>(node), init.is_false()));
    }
  }
  return ts;
}

void TransitionSystem::install_combinational(sat::Solver& solver) const {
  if (solver.num_vars() != 0) {
    throw std::logic_error("install: solver must be fresh");
  }
  for (int i = 0; i < num_encoding_vars(); ++i) solver.new_var();
  // Node 0 is constant false.
  solver.add_unit(Lit::make(0, /*sign=*/true));
  // Tseitin clauses for every AND gate: g ↔ a ∧ b.
  for (const std::uint32_t n : aig_.ands()) {
    const Lit g = Lit::make(static_cast<Var>(n));
    const Lit a = cur(aig_.fanin0(n));
    const Lit b = cur(aig_.fanin1(n));
    solver.add_binary(~g, a);
    solver.add_binary(~g, b);
    solver.add_ternary(g, ~a, ~b);
  }
  // Invariant constraints hold at the current step.
  for (const AigLit c : aig_.constraints()) {
    solver.add_unit(cur(c));
  }
}

void TransitionSystem::install(sat::Solver& solver) const {
  install_combinational(solver);
  // X' definitions: next_i ↔ next-state function of latch i.
  for (std::size_t i = 0; i < aig_.latches().size(); ++i) {
    const Lit xp = Lit::make(next_state_var(i));
    const Lit fn = cur(aig_.next(aig_.latches()[i]));
    solver.add_binary(~xp, fn);
    solver.add_binary(xp, ~fn);
  }
}

LBool TransitionSystem::init_value(Var v) const {
  const int idx = latch_index_of(v);
  if (idx < 0) return sat::l_Undef;
  return aig_.init(aig_.latches()[static_cast<std::size_t>(idx)]);
}

bool TransitionSystem::cube_intersects_init(std::span<const Lit> cube) const {
  for (const Lit l : cube) {
    const LBool init = init_value(l.var());
    if (init.is_undef()) continue;
    // Literal l is satisfied in I iff the reset value matches its sign.
    const bool satisfied = init.is_true() != l.sign();
    if (!satisfied) return false;
  }
  return true;
}

}  // namespace pilot::ts
