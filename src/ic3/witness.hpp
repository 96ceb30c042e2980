/// \file witness.hpp
/// The engines' evidence for both verdicts.
///
/// UNSAFE → a `Trace`: a chain of cubes with the inputs driving each step.
/// Lifting guarantees the chain is *universal*: every concrete state in
/// cube i transitions (under the recorded inputs) into cube i+1, and every
/// state of the last cube raises the bad signal — so a concrete
/// counterexample can be replayed by plain simulation from any init state
/// in the first cube.
///
/// SAFE → an `InductiveInvariant`: the clause set of the fixpoint frame.
///
/// Neither is checked here: cert::from_trace / cert::from_invariant turn
/// them into certificates and cert::check (cert/certificate.hpp) is the one
/// checker.
#pragma once

#include <string>
#include <vector>

#include "ic3/cube.hpp"
#include "ts/transition_system.hpp"

namespace pilot::ic3 {

/// Counterexample: states[0] intersects I; inputs[i] drives states[i] to
/// states[i+1]; inputs.back() drives states.back() into the bad signal.
struct Trace {
  std::vector<Cube> states;
  std::vector<std::vector<Lit>> inputs;

  [[nodiscard]] std::size_t length() const { return states.size(); }
};

/// Inductive strengthening: the conjunction of clauses ¬cube.
struct InductiveInvariant {
  std::vector<Cube> lemma_cubes;

  [[nodiscard]] std::size_t num_clauses() const { return lemma_cubes.size(); }
};

/// Renders a concrete counterexample in the AIGER/HWMCC witness format:
///   1          (property violated)
///   b<index>   (which bad property)
///   <latch reset line>      e.g. 00100
///   <one input line per step>
///   .
/// The trace cubes are concretized with fixed defaults (reset values, then
/// cube literals, then 0), so the emitted witness replays on any AIGER
/// simulator.
std::string to_aiger_witness(const ts::TransitionSystem& ts,
                             const Trace& trace,
                             std::size_t property_index = 0);

}  // namespace pilot::ic3
