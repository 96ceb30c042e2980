/// Differential fuzzing of the packed ternary simulator against the
/// reference byte-wise TernarySimulator (random {0,1,X} frames, broadcast
/// and per-lane) and against BitSimulator on X-free frames across
/// multi-step latch sequences.  The packed backend is the production path
/// of ternary lifting, so any encoding bug here silently corrupts cubes —
/// these tests pin the two backends to exact agreement on every node,
/// every lane.
#include <gtest/gtest.h>

#include <vector>

#include "aig/simulation.hpp"
#include "util/rng.hpp"

namespace pilot::aig {
namespace {

/// Random AIG transition system (mirrors the test_random_systems
/// generator): a few latches and inputs, a random DAG of AND gates,
/// random next-state functions and a random bad cone.
Aig random_system(Rng& rng, int num_latches, int num_inputs, int num_gates) {
  Aig a;
  std::vector<AigLit> pool;
  pool.push_back(AigLit::constant(false));
  for (int i = 0; i < num_inputs; ++i) pool.push_back(a.add_input());
  std::vector<AigLit> latches;
  for (int i = 0; i < num_latches; ++i) {
    const LBool init = rng.chance(0.1) ? l_Undef : LBool(rng.chance(0.5));
    const AigLit l = a.add_latch(init);
    latches.push_back(l);
    pool.push_back(l);
  }
  auto pick = [&]() {
    const AigLit l = pool[rng.below(pool.size())];
    return l ^ rng.chance(0.5);
  };
  for (int i = 0; i < num_gates; ++i) {
    pool.push_back(a.make_and(pick(), pick()));
  }
  for (const AigLit l : latches) a.set_next(l, pick());
  a.add_bad(pick());
  return a;
}

TV random_tv(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return TV::kZero;
    case 1: return TV::kOne;
    default: return TV::kX;
  }
}

/// Every literal of every node, both polarities — the exhaustive probe set.
std::vector<AigLit> all_probes(const Aig& a) {
  std::vector<AigLit> probes;
  probes.reserve(a.num_nodes() * 2);
  for (std::uint32_t n = 0; n < a.num_nodes(); ++n) {
    probes.push_back(AigLit::make(n, false));
    probes.push_back(AigLit::make(n, true));
  }
  return probes;
}

TEST(TernaryPacked, BroadcastMatchesByteSimulatorOnRandomFrames) {
  Rng rng(20240601);
  for (int round = 0; round < 50; ++round) {
    const Aig a = random_system(rng, 2 + static_cast<int>(rng.below(5)),
                                static_cast<int>(rng.below(4)),
                                3 + static_cast<int>(rng.below(20)));
    TernarySimulator byte_sim(a);
    PackedTernarySimulator packed(a);
    const std::vector<AigLit> probes = all_probes(a);
    for (int frame = 0; frame < 8; ++frame) {
      std::vector<TV> latch_values(a.num_latches());
      std::vector<TV> input_values(a.num_inputs());
      for (TV& v : latch_values) v = random_tv(rng);
      for (TV& v : input_values) v = random_tv(rng);
      byte_sim.compute(latch_values, input_values);
      packed.compute(latch_values, input_values);
      for (const AigLit p : probes) {
        const TV expect = byte_sim.value(p);
        for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
             ++lane) {
          ASSERT_EQ(packed.value(p, lane), expect)
              << "round=" << round << " frame=" << frame
              << " node=" << p.node() << " neg=" << p.negated()
              << " lane=" << lane;
        }
      }
    }
  }
}

TEST(TernaryPacked, EachLaneMatchesAnIndependentByteRun) {
  Rng rng(777001);
  for (int round = 0; round < 25; ++round) {
    const Aig a = random_system(rng, 2 + static_cast<int>(rng.below(5)),
                                static_cast<int>(rng.below(4)),
                                3 + static_cast<int>(rng.below(20)));
    TernarySimulator byte_sim(a);
    PackedTernarySimulator packed(a);
    const std::vector<AigLit> probes = all_probes(a);
    // 32 independent frames, one per lane.
    std::vector<std::vector<TV>> lane_latches(PackedTernarySimulator::kLanes);
    std::vector<std::vector<TV>> lane_inputs(PackedTernarySimulator::kLanes);
    for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
         ++lane) {
      lane_latches[lane].resize(a.num_latches());
      lane_inputs[lane].resize(a.num_inputs());
      for (std::size_t i = 0; i < a.num_latches(); ++i) {
        const TV v = random_tv(rng);
        lane_latches[lane][i] = v;
        packed.set_latch(i, lane, v);
      }
      for (std::size_t i = 0; i < a.num_inputs(); ++i) {
        const TV v = random_tv(rng);
        lane_inputs[lane][i] = v;
        packed.set_input(i, lane, v);
      }
    }
    packed.compute();
    for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
         ++lane) {
      byte_sim.compute(lane_latches[lane], lane_inputs[lane]);
      for (const AigLit p : probes) {
        ASSERT_EQ(packed.value(p, lane), byte_sim.value(p))
            << "round=" << round << " lane=" << lane << " node=" << p.node()
            << " neg=" << p.negated();
      }
    }
  }
}

TEST(TernaryPacked, XFreeLanesAgreeWithBitSimulatorAcrossSteps) {
  Rng rng(424242);
  for (int round = 0; round < 25; ++round) {
    const Aig a = random_system(rng, 2 + static_cast<int>(rng.below(5)),
                                static_cast<int>(rng.below(4)),
                                3 + static_cast<int>(rng.below(20)));
    BitSimulator bit(a);
    PackedTernarySimulator packed(a);
    const std::vector<AigLit> probes = all_probes(a);
    // Definite initial state on every lane: BitSimulator::reset fills
    // uninitialized latches from the pattern word; mirror bit k of each
    // latch word into packed lane k.
    bit.reset(/*undef_fill=*/rng.next_u64());
    for (std::size_t i = 0; i < a.num_latches(); ++i) {
      const std::uint64_t w = bit.latch_value(a.latches()[i]);
      for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
           ++lane) {
        packed.set_latch(i, lane,
                         ((w >> lane) & 1ULL) != 0 ? TV::kOne : TV::kZero);
      }
    }
    for (int step = 0; step < 6; ++step) {
      std::vector<std::uint64_t> inputs(a.num_inputs());
      for (std::size_t i = 0; i < a.num_inputs(); ++i) {
        inputs[i] = rng.next_u64();
        for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
             ++lane) {
          packed.set_input(
              i, lane,
              ((inputs[i] >> lane) & 1ULL) != 0 ? TV::kOne : TV::kZero);
        }
      }
      bit.compute(inputs);
      packed.compute();
      for (const AigLit p : probes) {
        const std::uint64_t w = bit.value(p);
        for (std::size_t lane = 0; lane < PackedTernarySimulator::kLanes;
             ++lane) {
          const TV expect =
              ((w >> lane) & 1ULL) != 0 ? TV::kOne : TV::kZero;
          ASSERT_EQ(packed.value(p, lane), expect)
              << "round=" << round << " step=" << step
              << " node=" << p.node() << " neg=" << p.negated()
              << " lane=" << lane;
        }
      }
      bit.latch_step();
      packed.latch_step();
    }
  }
}

TEST(TernaryPacked, TrialConeMatchesFullRecomputeAndRollbackRestores) {
  Rng rng(90210);
  for (int round = 0; round < 25; ++round) {
    const Aig a = random_system(rng, 3 + static_cast<int>(rng.below(4)),
                                static_cast<int>(rng.below(3)),
                                5 + static_cast<int>(rng.below(20)));
    if (a.num_latches() == 0) continue;
    PackedTernarySimulator packed(a);
    PackedTernarySimulator reference(a);
    const std::vector<AigLit> probes = all_probes(a);
    std::vector<TV> latch_values(a.num_latches());
    std::vector<TV> input_values(a.num_inputs());
    for (TV& v : latch_values) v = random_tv(rng);
    for (TV& v : input_values) v = random_tv(rng);
    packed.compute(latch_values, input_values);

    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t idx = rng.below(a.num_latches());
      const TV v = random_tv(rng);
      // Snapshot before the trial (lane 0 suffices: all lanes identical).
      std::vector<TV> before;
      before.reserve(probes.size());
      for (const AigLit p : probes) before.push_back(packed.value(p, 0));

      packed.trial_set_latch(idx, v);
      // Reference: same frame with the latch set outright, full sweep.
      latch_values[idx] = v;
      reference.compute(latch_values, input_values);
      for (std::size_t pi = 0; pi < probes.size(); ++pi) {
        ASSERT_EQ(packed.value(probes[pi], 0),
                  reference.value(probes[pi], 0))
            << "round=" << round << " trial=" << trial
            << " node=" << probes[pi].node();
      }
      if (rng.chance(0.5)) {
        packed.trial_commit();  // keep: the live frame adopts the trial
      } else {
        packed.trial_rollback();
        latch_values[idx] = before[2 * a.latches()[idx]];  // pre-trial value
        for (std::size_t pi = 0; pi < probes.size(); ++pi) {
          ASSERT_EQ(packed.value(probes[pi], 0), before[pi])
              << "rollback mismatch: round=" << round << " trial=" << trial
              << " node=" << probes[pi].node();
        }
      }
    }
  }
}

}  // namespace
}  // namespace pilot::aig
