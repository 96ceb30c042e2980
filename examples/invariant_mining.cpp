/// \file invariant_mining.cpp
/// Uses the public API to extract, inspect, and independently certify the
/// inductive invariant IC3 produces for a safe design — the workflow a
/// verification engineer follows when the proof artifact matters as much as
/// the verdict (e.g. for certificate checking or design understanding).
///
/// Run:  ./build/examples/invariant_mining [--n N]
#include <cstdio>
#include <map>

#include "cert/certificate.hpp"
#include "circuits/families.hpp"
#include "ic3/engine.hpp"
#include "ts/transition_system.hpp"
#include "util/options.hpp"

using namespace pilot;

int main(int argc, char** argv) {
  std::int64_t n = 8;
  OptionParser parser("invariant_mining — extract & certify IC3 invariants");
  parser.add_int("n", &n, "token ring size");
  if (!parser.parse(argc, argv)) return 1;

  // A one-hot token ring: the textbook example of a design whose safety
  // proof IS its invariant ("exactly one token").
  const circuits::CircuitCase ring =
      circuits::token_ring_safe(static_cast<std::size_t>(n));
  const ts::TransitionSystem ts = ts::TransitionSystem::from_aig(ring.aig);

  ic3::Config cfg;
  cfg.predict_lemmas = true;
  ic3::Engine engine(ts, cfg);
  const ic3::Result result = engine.check();

  if (result.verdict != ic3::Verdict::kSafe || !result.invariant) {
    std::printf("unexpected verdict %s\n", ic3::to_string(result.verdict));
    return 1;
  }

  const ic3::InductiveInvariant& inv = *result.invariant;
  std::printf("token_ring(%lld): SAFE in %.3fs, invariant has %zu clauses\n\n",
              static_cast<long long>(n), result.seconds, inv.num_clauses());

  // Lemma length histogram: short clauses = strong facts.
  std::map<std::size_t, int> histogram;
  for (const ic3::Cube& c : inv.lemma_cubes) ++histogram[c.size()];
  std::printf("clause length histogram:\n");
  for (const auto& [len, count] : histogram) {
    std::printf("  %2zu literals: %d clause(s)\n", len, count);
  }

  // Show a few lemmas in readable form (cube = set of blocked states).
  std::printf("\nsample lemmas (as blocked cubes over latch variables):\n");
  std::size_t shown = 0;
  for (const ic3::Cube& c : inv.lemma_cubes) {
    if (shown++ == 5) break;
    std::printf("  ¬%s\n", c.to_string().c_str());
  }

  // Independent certification (initiation, consecution, property).
  const cert::CheckOutcome check =
      cert::check(ts, cert::from_invariant(ts, inv));
  std::printf("\nindependent certification: %s%s%s\n",
              check.ok ? "PASSED" : "FAILED", check.ok ? "" : " — ",
              check.reason.c_str());
  return check.ok ? 0 : 1;
}
