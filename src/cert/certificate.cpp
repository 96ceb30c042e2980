#include "cert/certificate.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "aig/simulation.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "ts/unroller.hpp"

namespace pilot::cert {
namespace {

CheckOutcome failure(std::string reason) {
  return CheckOutcome{false, std::move(reason)};
}

/// The deliberately-different solver configuration: no trail reuse, no
/// inprocessing, a perturbed seed and a slice of random decisions so the
/// checker explores a fresh variable order instead of replaying the
/// engine's.
void configure_independent(sat::Solver& solver, std::uint64_t seed) {
  solver.set_trail_reuse(false);
  solver.set_inprocess(false);
  solver.set_seed(seed ^ 0x9e3779b97f4a7c15ULL);
  solver.set_random_decision_freq(0.02);
}

/// Clause literal at `frame` of an unrolling; enc is ±(latch_index + 1).
sat::Lit clause_lit(const ts::Unroller& un, int enc, int frame) {
  const std::size_t idx = static_cast<std::size_t>(std::abs(enc)) - 1;
  return sat::Lit::make(un.state_var(idx, frame), /*negated=*/enc < 0);
}

/// "state at frame a != state at frame b", mirroring the k-induction
/// engine's simple-path strengthening (bmc/kinduction.cpp).
void add_state_disequality(sat::Solver& solver, const ts::Unroller& un,
                           const ts::TransitionSystem& ts, int a, int b) {
  std::vector<sat::Lit> diff_bits;
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    const sat::Lit xa = sat::Lit::make(un.state_var(i, a));
    const sat::Lit xb = sat::Lit::make(un.state_var(i, b));
    const sat::Lit d = sat::Lit::make(solver.new_var());
    solver.add_ternary(~d, xa, xb);
    solver.add_ternary(~d, ~xa, ~xb);
    solver.add_ternary(d, ~xa, xb);
    solver.add_ternary(d, xa, ~xb);
    diff_bits.push_back(d);
  }
  if (diff_bits.empty()) {
    solver.add_clause(std::vector<sat::Lit>{});
    return;
  }
  solver.add_clause(diff_bits);
}

CheckOutcome check_shape(const ts::TransitionSystem& ts,
                         const Certificate& cert) {
  if (cert.num_latches != ts.num_latches()) {
    std::ostringstream oss;
    oss << "certificate declares " << cert.num_latches
        << " latches but the model has " << ts.num_latches();
    return failure(oss.str());
  }
  for (const std::vector<int>& clause : cert.clauses) {
    for (const int enc : clause) {
      if (enc == 0 ||
          static_cast<std::size_t>(std::abs(enc)) > cert.num_latches) {
        std::ostringstream oss;
        oss << "clause literal " << enc << " is out of range (latches: "
            << cert.num_latches << ")";
        return failure(oss.str());
      }
    }
  }
  return CheckOutcome{};
}

std::string clause_to_string(const std::vector<int>& clause) {
  std::ostringstream oss;
  oss << "(";
  for (std::size_t i = 0; i < clause.size(); ++i) {
    if (i != 0) oss << " ";
    oss << clause[i];
  }
  oss << ")";
  return oss.str();
}

CheckOutcome check_invariant_cert(const ts::TransitionSystem& ts,
                                  const Certificate& cert,
                                  std::uint64_t seed) {
  const aig::Aig& circuit = ts.aig();

  // (1) Init ⊆ Inv.  I is a cube over the latches, so a clause holds on
  // every initial state iff some literal of it is fixed true by the reset
  // values — an exact syntactic test, no solver involved.
  for (const std::vector<int>& clause : cert.clauses) {
    bool satisfied = false;
    for (const int enc : clause) {
      const std::size_t idx = static_cast<std::size_t>(std::abs(enc)) - 1;
      const aig::LBool init = circuit.init(circuit.latches()[idx]);
      if ((enc > 0 && init == aig::l_True) ||
          (enc < 0 && init == aig::l_False)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      return failure("initiation fails for clause " +
                     clause_to_string(clause));
    }
  }

  // Two-frame unrolling — a different encoding than the engines'
  // SolverManager install — with the invariant clauses asserted at frame 0.
  sat::Solver solver;
  configure_independent(solver, seed);
  ts::Unroller un(ts, solver, /*assert_init=*/false);
  un.extend_to(1);
  for (const std::vector<int>& clause : cert.clauses) {
    std::vector<sat::Lit> lits;
    lits.reserve(clause.size());
    for (const int enc : clause) lits.push_back(clause_lit(un, enc, 0));
    solver.add_clause(lits);
  }

  // (3) Inv ⇒ ¬Bad: the clauses alone must exclude the bad cone.
  if (solver.solve(std::vector<sat::Lit>{un.bad(0)}) !=
      sat::SolveResult::kUnsat) {
    return failure("invariant does not exclude the bad cone");
  }

  // (2) Inv ∧ T ⇒ Inv′: each clause must hold at frame 1 whenever all
  // clauses hold at frame 0.
  for (const std::vector<int>& clause : cert.clauses) {
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(clause.size());
    for (const int enc : clause) {
      assumptions.push_back(~clause_lit(un, enc, 1));
    }
    if (solver.solve(assumptions) != sat::SolveResult::kUnsat) {
      return failure("consecution fails for clause " +
                     clause_to_string(clause));
    }
  }
  return CheckOutcome{};
}

CheckOutcome check_kinduction_cert(const ts::TransitionSystem& ts,
                                   const Certificate& cert,
                                   std::uint64_t seed) {
  if (cert.k < 0) return failure("k-induction certificate has no bound");
  const int k = cert.k;

  // Base cases: no counterexample of length 0..k from the initial states.
  {
    sat::Solver solver;
    configure_independent(solver, seed);
    ts::Unroller base(ts, solver, /*assert_init=*/true);
    base.extend_to(k);
    for (int i = 0; i <= k; ++i) {
      if (solver.solve(std::vector<sat::Lit>{base.bad(i)}) !=
          sat::SolveResult::kUnsat) {
        return failure("base case fails at frame " + std::to_string(i));
      }
    }
  }

  // Step case: ¬bad at frames 0..k, bad at frame k+1 — with the same
  // accumulated simple-path constraints (all frame pairs distinct) the
  // engine had when its step query closed.
  {
    sat::Solver solver;
    configure_independent(solver, seed + 1);
    ts::Unroller step(ts, solver, /*assert_init=*/false);
    step.extend_to(k + 1);
    for (int i = 0; i <= k; ++i) solver.add_unit(~step.bad(i));
    if (cert.simple_path) {
      for (int j = 1; j <= k + 1; ++j) {
        for (int i = 0; i < j; ++i) {
          add_state_disequality(solver, step, ts, i, j);
        }
      }
    }
    if (solver.solve(std::vector<sat::Lit>{step.bad(k + 1)}) !=
        sat::SolveResult::kUnsat) {
      return failure("step case fails at k = " + std::to_string(k));
    }
  }
  return CheckOutcome{};
}

/// Splits `text` into lines (without terminators); a trailing newline does
/// not produce a final empty line.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

CheckOutcome check_witness_cert(const ts::TransitionSystem& ts,
                                const Certificate& cert) {
  const aig::Aig& circuit = ts.aig();
  const std::vector<std::string> lines = split_lines(cert.witness);
  // Layout: "1", "b<idx>", latch reset line, one input line per step, ".".
  if (lines.size() < 5) return failure("witness has too few lines");
  if (lines[0] != "1") {
    return failure("witness line 1: expected '1', got '" + lines[0] + "'");
  }
  if (lines[1].empty() || lines[1][0] != 'b') {
    return failure("witness line 2: expected 'b<index>', got '" + lines[1] +
                   "'");
  }
  if (lines.back() != ".") return failure("witness does not end with '.'");

  const std::string& latch_line = lines[2];
  if (latch_line.size() != circuit.num_latches()) {
    std::ostringstream oss;
    oss << "witness latch line has " << latch_line.size()
        << " bits, model has " << circuit.num_latches() << " latches";
    return failure(oss.str());
  }

  // Solver-free replay: drive the recorded inputs through the bit-parallel
  // simulator and confirm the bad cone fires on the final step.
  aig::BitSimulator sim(circuit);
  sim.reset();
  for (std::size_t i = 0; i < circuit.num_latches(); ++i) {
    const char c = latch_line[i];
    if (c != '0' && c != '1' && c != 'x') {
      return failure(std::string("witness latch line: invalid bit '") + c +
                     "'");
    }
    // The recorded state must be a legal *initial* state, or the replay
    // proves reachability from nowhere.
    const aig::LBool init = circuit.init(circuit.latches()[i]);
    if ((init == aig::l_True && c != '1') ||
        (init == aig::l_False && c != '0')) {
      return failure("witness initial state contradicts latch " +
                     std::to_string(i) + "'s reset value");
    }
    sim.set_latch(circuit.latches()[i], c == '1' ? ~0ULL : 0);
  }

  const std::size_t num_steps = lines.size() - 4;
  if (num_steps == 0) return failure("witness has no input frames");
  for (std::size_t step = 0; step < num_steps; ++step) {
    const std::string& input_line = lines[3 + step];
    if (input_line.size() != circuit.num_inputs()) {
      std::ostringstream oss;
      oss << "witness input frame " << step << " has " << input_line.size()
          << " bits, model has " << circuit.num_inputs() << " inputs";
      return failure(oss.str());
    }
    std::vector<std::uint64_t> input_bits(circuit.num_inputs(), 0);
    for (std::size_t i = 0; i < input_line.size(); ++i) {
      const char c = input_line[i];
      if (c != '0' && c != '1' && c != 'x') {
        return failure(std::string("witness input frame: invalid bit '") + c +
                       "'");
      }
      if (c == '1') input_bits[i] = ~0ULL;
    }
    sim.compute(input_bits);
    // A trajectory that leaves the constrained state space is not a real
    // counterexample, no matter what the bad cone says.
    for (const aig::AigLit con : circuit.constraints()) {
      if ((sim.value(con) & 1ULL) == 0) {
        return failure("witness violates an invariant constraint at step " +
                       std::to_string(step));
      }
    }
    if (step + 1 == num_steps) {
      const sat::Lit bad = ts.bad();
      const std::uint64_t v = sim.value(aig::AigLit::make(
          static_cast<std::uint32_t>(bad.var()), bad.sign()));
      if ((v & 1ULL) == 0) {
        return failure("bad signal not raised at the end of the witness");
      }
    } else {
      sim.latch_step();
    }
  }
  return CheckOutcome{};
}

}  // namespace

const char* to_string(Certificate::Kind kind) {
  switch (kind) {
    case Certificate::Kind::kInvariant: return "invariant";
    case Certificate::Kind::kKinduction: return "kinduction";
    case Certificate::Kind::kWitness: return "witness";
  }
  return "?";
}

Certificate from_invariant(const ts::TransitionSystem& ts,
                           const ic3::InductiveInvariant& inv,
                           std::size_t property_index) {
  Certificate cert;
  cert.kind = Certificate::Kind::kInvariant;
  cert.property_index = property_index;
  cert.num_latches = ts.num_latches();
  cert.clauses.reserve(inv.lemma_cubes.size());
  for (const ic3::Cube& cube : inv.lemma_cubes) {
    std::vector<int> clause;
    clause.reserve(cube.size());
    for (const ic3::Lit l : cube) {
      const int idx = ts.latch_index_of(l.var());
      if (idx < 0) {
        throw std::invalid_argument(
            "from_invariant: lemma literal is not a state variable");
      }
      // The clause is ¬cube: a cube literal "latch = 0" contributes the
      // clause literal "latch = 1" (positive encoding) and vice versa.
      clause.push_back(l.sign() ? idx + 1 : -(idx + 1));
    }
    cert.clauses.push_back(std::move(clause));
  }
  return cert;
}

Certificate from_kinduction(const ts::TransitionSystem& ts, int k,
                            bool simple_path, std::size_t property_index) {
  Certificate cert;
  cert.kind = Certificate::Kind::kKinduction;
  cert.property_index = property_index;
  cert.num_latches = ts.num_latches();
  cert.k = k;
  cert.simple_path = simple_path;
  return cert;
}

Certificate from_trace(const ts::TransitionSystem& ts, const ic3::Trace& trace,
                       std::size_t property_index) {
  Certificate cert;
  cert.kind = Certificate::Kind::kWitness;
  cert.property_index = property_index;
  cert.num_latches = ts.num_latches();
  cert.witness = ic3::to_aiger_witness(ts, trace, property_index);
  return cert;
}

std::optional<Certificate> from_verdict(
    const ts::TransitionSystem& ts, ic3::Verdict verdict,
    const std::optional<ic3::InductiveInvariant>& invariant,
    const std::optional<ic3::Trace>& trace, int kind_k, bool kind_simple_path,
    std::size_t property_index, std::string* why_none) {
  switch (verdict) {
    case ic3::Verdict::kSafe:
      if (invariant.has_value()) {
        return from_invariant(ts, *invariant, property_index);
      }
      if (kind_k >= 0) {
        return from_kinduction(ts, kind_k, kind_simple_path, property_index);
      }
      if (why_none != nullptr) {
        *why_none =
            "SAFE verdict carries neither an inductive invariant nor a "
            "k-induction bound";
      }
      return std::nullopt;
    case ic3::Verdict::kUnsafe:
      if (trace.has_value()) return from_trace(ts, *trace, property_index);
      if (why_none != nullptr) {
        *why_none = "UNSAFE verdict carries no counterexample trace";
      }
      return std::nullopt;
    case ic3::Verdict::kUnknown:
      break;
  }
  if (why_none != nullptr) *why_none = "verdict is UNKNOWN";
  return std::nullopt;
}

std::string to_text(const Certificate& cert) {
  std::ostringstream oss;
  oss << "pilot-cert v1\n";
  oss << "kind " << to_string(cert.kind) << "\n";
  oss << "property " << cert.property_index << "\n";
  oss << "latches " << cert.num_latches << "\n";
  switch (cert.kind) {
    case Certificate::Kind::kInvariant: {
      oss << "clauses " << cert.clauses.size() << "\n";
      for (const std::vector<int>& clause : cert.clauses) {
        for (std::size_t i = 0; i < clause.size(); ++i) {
          if (i != 0) oss << " ";
          oss << clause[i];
        }
        oss << "\n";
      }
      break;
    }
    case Certificate::Kind::kKinduction:
      oss << "k " << cert.k << "\n";
      oss << "simple-path " << (cert.simple_path ? 1 : 0) << "\n";
      break;
    case Certificate::Kind::kWitness: {
      const std::vector<std::string> lines = split_lines(cert.witness);
      oss << "witness " << lines.size() << "\n";
      for (const std::string& line : lines) oss << line << "\n";
      break;
    }
  }
  return oss.str();
}

namespace {

/// Sets `*error` to "certificate line N: <what>" and returns nullopt.
std::optional<Certificate> parse_fail(std::size_t line_no,
                                      const std::string& what,
                                      std::string* error) {
  if (error != nullptr) {
    *error = "certificate line " + std::to_string(line_no) + ": " + what;
  }
  return std::nullopt;
}

bool parse_size(const std::string& token, std::size_t* out) {
  if (token.empty()) return false;
  std::size_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

/// "key value" line; returns the value or nullopt on key mismatch.
std::optional<std::string> keyed_value(const std::string& line,
                                       const std::string& key) {
  if (line.size() <= key.size() + 1 || line.compare(0, key.size(), key) != 0 ||
      line[key.size()] != ' ') {
    return std::nullopt;
  }
  return line.substr(key.size() + 1);
}

}  // namespace

std::optional<Certificate> parse(const std::string& text, std::string* error) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines.empty() || lines[0] != "pilot-cert v1") {
    return parse_fail(1, "expected header 'pilot-cert v1', got '" +
                             (lines.empty() ? std::string() : lines[0]) + "'",
                      error);
  }
  if (lines.size() < 4) return parse_fail(lines.size(), "truncated", error);

  Certificate cert;
  const std::optional<std::string> kind = keyed_value(lines[1], "kind");
  if (!kind.has_value()) {
    return parse_fail(2, "expected 'kind invariant|kinduction|witness', got '" +
                             lines[1] + "'",
                      error);
  }
  if (*kind == "invariant") {
    cert.kind = Certificate::Kind::kInvariant;
  } else if (*kind == "kinduction") {
    cert.kind = Certificate::Kind::kKinduction;
  } else if (*kind == "witness") {
    cert.kind = Certificate::Kind::kWitness;
  } else {
    return parse_fail(
        2, "unknown certificate kind '" + *kind +
               "'; expected invariant, kinduction, or witness",
        error);
  }

  const std::optional<std::string> prop = keyed_value(lines[2], "property");
  if (!prop.has_value() || !parse_size(*prop, &cert.property_index)) {
    return parse_fail(3, "expected 'property <index>', got '" + lines[2] + "'",
                      error);
  }
  const std::optional<std::string> latches = keyed_value(lines[3], "latches");
  if (!latches.has_value() || !parse_size(*latches, &cert.num_latches)) {
    return parse_fail(4, "expected 'latches <count>', got '" + lines[3] + "'",
                      error);
  }

  switch (cert.kind) {
    case Certificate::Kind::kInvariant: {
      if (lines.size() < 5) return parse_fail(5, "missing 'clauses'", error);
      std::size_t count = 0;
      const std::optional<std::string> n = keyed_value(lines[4], "clauses");
      if (!n.has_value() || !parse_size(*n, &count)) {
        return parse_fail(5, "expected 'clauses <count>', got '" + lines[4] +
                                 "'",
                          error);
      }
      if (lines.size() != 5 + count) {
        return parse_fail(lines.size(),
                          "expected " + std::to_string(count) +
                              " clause lines, got " +
                              std::to_string(lines.size() - 5),
                          error);
      }
      for (std::size_t i = 0; i < count; ++i) {
        std::istringstream iss(lines[5 + i]);
        std::vector<int> clause;
        std::string token;
        while (iss >> token) {
          try {
            std::size_t consumed = 0;
            const int enc = std::stoi(token, &consumed);
            if (consumed != token.size() || enc == 0) throw std::exception();
            clause.push_back(enc);
          } catch (...) {
            return parse_fail(6 + i,
                              "invalid clause literal '" + token + "'", error);
          }
        }
        cert.clauses.push_back(std::move(clause));
      }
      break;
    }
    case Certificate::Kind::kKinduction: {
      if (lines.size() != 6) {
        return parse_fail(lines.size(),
                          "expected 'k <bound>' and 'simple-path 0|1'", error);
      }
      const std::optional<std::string> kv = keyed_value(lines[4], "k");
      std::size_t k = 0;
      if (!kv.has_value() || !parse_size(*kv, &k)) {
        return parse_fail(5, "expected 'k <bound>', got '" + lines[4] + "'",
                          error);
      }
      cert.k = static_cast<int>(k);
      const std::optional<std::string> sp =
          keyed_value(lines[5], "simple-path");
      if (!sp.has_value() || (*sp != "0" && *sp != "1")) {
        return parse_fail(6, "expected 'simple-path 0|1', got '" + lines[5] +
                                 "'",
                          error);
      }
      cert.simple_path = *sp == "1";
      break;
    }
    case Certificate::Kind::kWitness: {
      if (lines.size() < 5) return parse_fail(5, "missing 'witness'", error);
      std::size_t count = 0;
      const std::optional<std::string> n = keyed_value(lines[4], "witness");
      if (!n.has_value() || !parse_size(*n, &count)) {
        return parse_fail(5, "expected 'witness <lines>', got '" + lines[4] +
                                 "'",
                          error);
      }
      if (lines.size() != 5 + count) {
        return parse_fail(lines.size(),
                          "expected " + std::to_string(count) +
                              " witness lines, got " +
                              std::to_string(lines.size() - 5),
                          error);
      }
      std::ostringstream body;
      for (std::size_t i = 0; i < count; ++i) body << lines[5 + i] << "\n";
      cert.witness = body.str();
      break;
    }
  }
  return cert;
}

bool save(const Certificate& cert, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_text(cert);
  return static_cast<bool>(out);
}

std::optional<Certificate> load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open certificate file " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), error);
}

CheckOutcome check(const ts::TransitionSystem& ts, const Certificate& cert,
                   std::uint64_t seed) {
  PILOT_TRACE_ZONE("cert.check");
  const CheckOutcome shape = check_shape(ts, cert);
  if (!shape.ok) return shape;
  switch (cert.kind) {
    case Certificate::Kind::kInvariant:
      return check_invariant_cert(ts, cert, seed);
    case Certificate::Kind::kKinduction:
      return check_kinduction_cert(ts, cert, seed);
    case Certificate::Kind::kWitness:
      return check_witness_cert(ts, cert);
  }
  return failure("unknown certificate kind");
}

aig::Aig certificate_circuit(const ts::TransitionSystem& ts,
                             const Certificate& cert) {
  if (cert.kind != Certificate::Kind::kInvariant) {
    throw std::invalid_argument(
        "certificate_circuit: only invariant certificates have a circuit "
        "form");
  }
  const aig::Aig& src = ts.aig();

  // Combinational copy of one transition step over fresh inputs: the
  // original inputs first, then one pseudo-input per latch (the state).
  aig::Aig out;
  aig::LitMap map(src.num_nodes(), aig::kInvalidLit);
  map[0] = aig::AigLit::constant(false);
  for (const std::uint32_t n : src.inputs()) {
    map[n] = out.add_input(src.name(n));
  }
  for (const std::uint32_t n : src.latches()) {
    map[n] = out.add_input(src.name(n).empty() ? "state" : src.name(n));
  }
  const auto ml = [&map](aig::AigLit l) {
    return map[l.node()] ^ l.negated();
  };
  for (const std::uint32_t n : src.ands()) {
    map[n] = out.make_and(ml(src.fanin0(n)), ml(src.fanin1(n)));
  }

  // Inv(s): the certificate clauses over the state pseudo-inputs; the same
  // clauses over the next-state functions give Inv′(next(s, x)).
  const auto clause_or = [&](const std::vector<int>& clause, bool primed) {
    std::vector<aig::AigLit> lits;
    lits.reserve(clause.size());
    for (const int enc : clause) {
      const std::size_t idx = static_cast<std::size_t>(std::abs(enc)) - 1;
      const std::uint32_t latch = src.latches()[idx];
      const aig::AigLit base = primed ? ml(src.next(latch)) : ml(aig::AigLit::make(latch));
      lits.push_back(base ^ (enc < 0));
    }
    return out.make_or_n(lits);
  };
  std::vector<aig::AigLit> inv_terms;
  std::vector<aig::AigLit> inv_next_terms;
  for (const std::vector<int>& clause : cert.clauses) {
    inv_terms.push_back(clause_or(clause, /*primed=*/false));
    inv_next_terms.push_back(clause_or(clause, /*primed=*/true));
  }
  const aig::AigLit inv = out.make_and_n(inv_terms);
  const aig::AigLit inv_next = out.make_and_n(inv_next_terms);

  // Init(s): latches with a defined reset value pinned to it.
  std::vector<aig::AigLit> init_terms;
  for (const std::uint32_t latch : src.latches()) {
    const aig::LBool init = src.init(latch);
    if (init == aig::l_Undef) continue;
    init_terms.push_back(ml(aig::AigLit::make(latch)) ^
                         (init == aig::l_False));
  }
  const aig::AigLit init = out.make_and_n(init_terms);

  // The transition's invariant constraints gate the consecution check, and
  // the bad cone (which already conjoins them) drives the property check.
  std::vector<aig::AigLit> constr_terms;
  for (const aig::AigLit c : src.constraints()) constr_terms.push_back(ml(c));
  const aig::AigLit constr = out.make_and_n(constr_terms);
  const sat::Lit bad = ts.bad();
  const aig::AigLit bad_lit =
      ml(aig::AigLit::make(static_cast<std::uint32_t>(bad.var()), bad.sign()));

  // The three combinational validity checks, one bad output each — the
  // certificate holds iff all three are unsatisfiable:
  //   b0: Init(s) ∧ ¬Inv(s)                 (Init ⊆ Inv)
  //   b1: Inv(s) ∧ Constr ∧ ¬Inv′(s′)       (Inv ∧ T ⇒ Inv′)
  //   b2: Inv(s) ∧ Bad(s, x)                (Inv ⇒ ¬Bad)
  out.add_bad(out.make_and(init, !inv));
  const std::vector<aig::AigLit> cons{inv, constr, !inv_next};
  out.add_bad(out.make_and_n(cons));
  out.add_bad(out.make_and(inv, bad_lit));
  return out;
}

}  // namespace pilot::cert
