#include "ic3/witness.hpp"

#include <sstream>

namespace pilot::ic3 {

std::string to_aiger_witness(const ts::TransitionSystem& ts,
                             const Trace& trace,
                             std::size_t property_index) {
  const aig::Aig& circuit = ts.aig();
  std::ostringstream oss;
  oss << "1\n" << "b" << property_index << "\n";

  // Initial latch line: reset values overridden by the first cube.
  std::string latch_line(circuit.num_latches(), '0');
  for (std::size_t i = 0; i < circuit.num_latches(); ++i) {
    const aig::LBool init = circuit.init(circuit.latches()[i]);
    if (init == aig::l_True) latch_line[i] = '1';
  }
  if (!trace.states.empty()) {
    for (const Lit l : trace.states[0]) {
      const int idx = ts.latch_index_of(l.var());
      if (idx >= 0) latch_line[static_cast<std::size_t>(idx)] =
          l.sign() ? '0' : '1';
    }
  }
  oss << latch_line << "\n";

  for (const auto& step_inputs : trace.inputs) {
    std::string input_line(circuit.num_inputs(), '0');
    for (const Lit l : step_inputs) {
      for (std::size_t i = 0; i < circuit.num_inputs(); ++i) {
        if (ts.input_var(i) == l.var()) {
          input_line[i] = l.sign() ? '0' : '1';
          break;
        }
      }
    }
    oss << input_line << "\n";
  }
  oss << ".\n";
  return oss.str();
}

}  // namespace pilot::ic3
