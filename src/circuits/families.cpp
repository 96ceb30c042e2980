#include "circuits/families.hpp"

#include <cassert>
#include <stdexcept>

#include "aig/simulation.hpp"
#include "circuits/builder.hpp"

namespace pilot::circuits {
namespace {

std::string param_name(const std::string& base,
                       std::initializer_list<std::uint64_t> params) {
  std::string s = base;
  for (const std::uint64_t p : params) {
    s += '_';
    s += std::to_string(p);
  }
  return s;
}

}  // namespace

CircuitCase counter_unsafe(std::size_t width, std::uint64_t target) {
  assert(width < 64 && target < (1ULL << width));
  Aig aig;
  const Word count = make_latches(aig, width, 0, "count");
  connect(aig, count, increment(aig, count));
  aig.add_bad(equals_const(aig, count, target));
  return CircuitCase{param_name("counter_unsafe", {width, target}),
                     "counter", std::move(aig), false,
                     static_cast<int>(target)};
}

CircuitCase counter_wrap_safe(std::size_t width, std::uint64_t limit,
                              std::uint64_t target) {
  assert(limit <= target && target < (1ULL << width) && limit >= 1);
  Aig aig;
  const Word count = make_latches(aig, width, 0, "count");
  const AigLit at_limit = equals_const(aig, count, limit - 1);
  connect(aig, count,
          mux_word(aig, at_limit, const_word(width, 0),
                   increment(aig, count)));
  aig.add_bad(equals_const(aig, count, target));
  return CircuitCase{param_name("counter_wrap_safe", {width, limit, target}),
                     "counter", std::move(aig), true, -1};
}

CircuitCase counter_enable_unsafe(std::size_t width, std::uint64_t target) {
  assert(width < 64 && target < (1ULL << width));
  Aig aig;
  const AigLit enable = aig.add_input("enable");
  const Word count = make_latches(aig, width, 0, "count");
  connect(aig, count,
          mux_word(aig, enable, increment(aig, count), count));
  aig.add_bad(equals_const(aig, count, target));
  return CircuitCase{param_name("counter_enable", {width, target}),
                     "counter", std::move(aig), false,
                     static_cast<int>(target)};
}

namespace {

CircuitCase combination_lock_impl(std::size_t input_width,
                                  const std::vector<std::uint64_t>& digits,
                                  int broken_stage, const std::string& name) {
  const std::size_t stages = digits.size();
  std::size_t pw = 1;
  while ((1ULL << pw) < stages + 1) ++pw;  // progress counter width
  Aig aig;
  const Word in = make_inputs(aig, input_width, "in");
  const Word progress = make_latches(aig, pw, 0, "progress");

  // advance = OR_s (progress == s ∧ input matches stage s)
  std::vector<AigLit> advance_terms;
  for (std::size_t s = 0; s < stages; ++s) {
    const AigLit at_stage = equals_const(aig, progress, s);
    AigLit match = equals_const(aig, in, digits[s]);
    if (static_cast<int>(s) == broken_stage) {
      // Unsatisfiable stage: the input would have to equal two different
      // words at once.
      match = aig.make_and(match,
                           equals_const(aig, in, digits[s] ^ 1ULL));
    }
    advance_terms.push_back(aig.make_and(at_stage, match));
  }
  const AigLit advance = aig.make_or_n(advance_terms);
  connect(aig, progress,
          mux_word(aig, advance, increment(aig, progress),
                   const_word(pw, 0)));
  aig.add_bad(equals_const(aig, progress, stages));
  CircuitCase c;
  c.name = name;
  c.family = "lock";
  c.aig = std::move(aig);
  c.expected_safe = broken_stage >= 0;
  c.expected_cex_length =
      broken_stage >= 0 ? -1 : static_cast<int>(stages);
  return c;
}

}  // namespace

CircuitCase combination_lock_unsafe(
    std::size_t input_width, const std::vector<std::uint64_t>& digits) {
  return combination_lock_impl(
      input_width, digits, -1,
      param_name("lock_unsafe", {input_width, digits.size()}));
}

CircuitCase combination_lock_safe(std::size_t input_width,
                                  const std::vector<std::uint64_t>& digits,
                                  std::size_t broken_stage) {
  assert(broken_stage < digits.size());
  return combination_lock_impl(
      input_width, digits, static_cast<int>(broken_stage),
      param_name("lock_safe", {input_width, digits.size(), broken_stage}));
}

CircuitCase shift_register(std::size_t width, bool constrain_input_zero) {
  Aig aig;
  const AigLit in = aig.add_input("in");
  const Word stages = make_latches(aig, width, 0, "stage");
  Word next;
  next.push_back(in);
  for (std::size_t i = 0; i + 1 < width; ++i) next.push_back(stages[i]);
  connect(aig, stages, next);
  aig.add_bad(stages[width - 1]);
  if (constrain_input_zero) aig.add_constraint(!in);
  CircuitCase c;
  c.name = param_name(constrain_input_zero ? "shiftreg_safe"
                                           : "shiftreg_unsafe",
                      {width});
  c.family = "shiftreg";
  c.aig = std::move(aig);
  c.expected_safe = constrain_input_zero;
  c.expected_cex_length =
      constrain_input_zero ? -1 : static_cast<int>(width);
  return c;
}

namespace {

Word rotate_next(const Word& t) {
  Word next;
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) next.push_back(t[(i + n - 1) % n]);
  return next;
}

}  // namespace

CircuitCase token_ring_safe(std::size_t n) {
  Aig aig;
  const Word tokens = make_latches(aig, n, 1, "token");
  connect(aig, tokens, rotate_next(tokens));
  aig.add_bad(at_least_two(aig, tokens));
  return CircuitCase{param_name("token_ring_safe", {n}), "ring",
                     std::move(aig), true, -1};
}

CircuitCase token_ring_unsafe(std::size_t n) {
  Aig aig;
  const AigLit inject = aig.add_input("inject");
  const Word tokens = make_latches(aig, n, 1, "token");
  const Word rotated = rotate_next(tokens);
  Word next;
  for (std::size_t i = 0; i < n; ++i) {
    // On inject, the token both advances and stays: duplication.
    next.push_back(
        aig.make_or(rotated[i], aig.make_and(inject, tokens[i])));
  }
  connect(aig, tokens, next);
  aig.add_bad(at_least_two(aig, tokens));
  return CircuitCase{param_name("token_ring_unsafe", {n}), "ring",
                     std::move(aig), false, 1};
}

CircuitCase arbiter_safe(std::size_t n) {
  Aig aig;
  const Word requests = make_inputs(aig, n, "req");
  const Word tokens = make_latches(aig, n, 1, "token");
  connect(aig, tokens, rotate_next(tokens));
  Word grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back(aig.make_and(requests[i], tokens[i]));
  }
  aig.add_bad(at_least_two(aig, grants));
  return CircuitCase{param_name("arbiter_safe", {n}), "arbiter",
                     std::move(aig), true, -1};
}

CircuitCase arbiter_unsafe(std::size_t n) {
  Aig aig;
  const Word requests = make_inputs(aig, n, "req");
  const Word tokens = make_latches(aig, n, 1, "token");
  const AigLit no_request = !aig.make_or_n(requests);
  const Word rotated = rotate_next(tokens);
  Word next;
  for (std::size_t i = 0; i < n; ++i) {
    // Bug: when idle, the token duplicates while rotating.
    next.push_back(
        aig.make_or(rotated[i], aig.make_and(no_request, tokens[i])));
  }
  connect(aig, tokens, next);
  Word grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back(aig.make_and(requests[i], tokens[i]));
  }
  aig.add_bad(at_least_two(aig, grants));
  return CircuitCase{param_name("arbiter_unsafe", {n}), "arbiter",
                     std::move(aig), false, -1};
}

namespace {

CircuitCase gray_counter_impl(std::size_t width, std::size_t shift,
                              bool safe, const std::string& name) {
  Aig aig;
  const Word count = make_latches(aig, width, 0, "count");
  const Word prev_gray = make_latches(aig, width, 0, "prev_gray");
  const AigLit started = aig.add_latch(aig::l_False, "started");

  const Word gray = xor_word(aig, count, shift_right_const(count, shift));
  connect(aig, count, increment(aig, count));
  connect(aig, prev_gray, gray);
  aig.set_next(started, AigLit::constant(true));

  const Word delta = xor_word(aig, gray, prev_gray);
  aig.add_bad(aig.make_and(started, !exactly_one(aig, delta)));
  CircuitCase c;
  c.name = name;
  c.family = "gray";
  c.aig = std::move(aig);
  // Faulty encoding b^(b>>2): gray2(1)=1 and gray2(2)=2 differ in two bits,
  // so the checker fires at frame 2.
  c.expected_safe = safe;
  c.expected_cex_length = safe ? -1 : 2;
  return c;
}

}  // namespace

CircuitCase gray_counter_safe(std::size_t width) {
  return gray_counter_impl(width, 1, true,
                           param_name("gray_safe", {width}));
}

CircuitCase gray_counter_unsafe(std::size_t width) {
  assert(width >= 3);
  return gray_counter_impl(width, 2, false,
                           param_name("gray_unsafe", {width}));
}

namespace {

/// Builds the LFSR next-state word: left shift, feedback bit into bit 0.
Word lfsr_next(Aig& aig, const Word& state, std::uint64_t taps) {
  std::vector<AigLit> tapped;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if ((taps >> i) & 1ULL) tapped.push_back(state[i]);
  }
  const AigLit feedback = parity(aig, tapped);
  Word next;
  next.push_back(feedback);
  for (std::size_t i = 0; i + 1 < state.size(); ++i) {
    next.push_back(state[i]);
  }
  return next;
}

}  // namespace

CircuitCase lfsr_safe(std::size_t width, std::uint64_t taps) {
  // The MSB tap guarantees a nonzero state cannot step to zero.
  if (((taps >> (width - 1)) & 1ULL) == 0) {
    throw std::invalid_argument("lfsr_safe requires the MSB tap");
  }
  Aig aig;
  const Word state = make_latches(aig, width, 1, "lfsr");
  connect(aig, state, lfsr_next(aig, state, taps));
  aig.add_bad(equals_const(aig, state, 0));
  return CircuitCase{param_name("lfsr_safe", {width, taps}), "lfsr",
                     std::move(aig), true, -1};
}

CircuitCase lfsr_unsafe(std::size_t width, std::uint64_t taps, int steps) {
  Aig aig;
  const Word state = make_latches(aig, width, 1, "lfsr");
  connect(aig, state, lfsr_next(aig, state, taps));
  // Find the state reached after `steps` iterations by simulation; that
  // state is reachable by construction.
  aig::BitSimulator sim(aig);
  sim.reset();
  for (int s = 0; s < steps; ++s) {
    sim.compute({});
    sim.latch_step();
  }
  std::uint64_t target = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (sim.latch_value(state[i].node()) & 1ULL) target |= 1ULL << i;
  }
  aig.add_bad(equals_const(aig, state, target));
  return CircuitCase{param_name("lfsr_unsafe", {width, taps,
                                                static_cast<std::uint64_t>(
                                                    steps)}),
                     "lfsr", std::move(aig), false, steps};
}

CircuitCase ring_parity_safe(std::size_t width) {
  Aig aig;
  const Word state = make_latches(aig, width, 1, "ring");  // odd parity
  Word next;
  for (std::size_t i = 0; i < width; ++i) {
    next.push_back(state[(i + 1) % width]);
  }
  connect(aig, state, next);
  aig.add_bad(!parity(aig, state));
  return CircuitCase{param_name("ring_parity_safe", {width}), "parity",
                     std::move(aig), true, -1};
}

namespace {

CircuitCase fifo_impl(std::size_t width, std::uint64_t capacity,
                      std::uint64_t full_check, bool safe,
                      const std::string& name) {
  assert(full_check < (1ULL << width));
  Aig aig;
  const AigLit push = aig.add_input("push");
  const AigLit pop = aig.add_input("pop");
  const Word occ = make_latches(aig, width, 0, "occ");

  const AigLit full = equals_const(aig, occ, full_check);
  const AigLit empty = equals_const(aig, occ, 0);
  const AigLit do_push = aig.make_and(push, !full);
  const AigLit do_pop = aig.make_and(pop, !empty);
  const AigLit up = aig.make_and(do_push, !do_pop);
  const AigLit down = aig.make_and(do_pop, !do_push);
  const Word inc = increment(aig, occ);
  const Word dec = subtract(aig, occ, const_word(width, 1));
  connect(aig, occ,
          mux_word(aig, up, inc, mux_word(aig, down, dec, occ)));
  aig.add_bad(less_than(aig, const_word(width, capacity), occ));  // occ > cap
  CircuitCase c;
  c.name = name;
  c.family = "fifo";
  c.aig = std::move(aig);
  c.expected_safe = safe;
  c.expected_cex_length = safe ? -1 : static_cast<int>(capacity) + 1;
  return c;
}

}  // namespace

CircuitCase fifo_safe(std::size_t width, std::uint64_t capacity) {
  return fifo_impl(width, capacity, capacity, true,
                   param_name("fifo_safe", {width, capacity}));
}

CircuitCase fifo_unsafe(std::size_t width, std::uint64_t capacity) {
  // Off-by-one full check lets occupancy reach capacity + 1.
  return fifo_impl(width, capacity, capacity + 1, false,
                   param_name("fifo_unsafe", {width, capacity}));
}

namespace {

CircuitCase saturating_impl(std::size_t width, std::uint64_t cap,
                            std::uint64_t clamp_at, bool safe,
                            const std::string& name) {
  Aig aig;
  const std::size_t in_width = width / 2 > 0 ? width / 2 : 1;
  const Word in = make_inputs(aig, in_width, "in");
  const Word acc = make_latches(aig, width, 0, "acc");

  // Widen to width+1 bits so the sum cannot wrap.
  Word in_ext = in;
  while (in_ext.size() < width + 1) in_ext.push_back(AigLit::constant(false));
  Word acc_ext = acc;
  acc_ext.push_back(AigLit::constant(false));
  const Word sum = ripple_add(aig, acc_ext, in_ext);

  const AigLit over = less_than(aig, const_word(width + 1, clamp_at), sum);
  Word clamped = const_word(width, clamp_at);
  Word sum_trunc(sum.begin(), sum.begin() + static_cast<long>(width));
  connect(aig, acc, mux_word(aig, over, clamped, sum_trunc));
  aig.add_bad(less_than(aig, const_word(width, cap), acc));  // acc > cap
  CircuitCase c;
  c.name = name;
  c.family = "saturate";
  c.aig = std::move(aig);
  c.expected_safe = safe;
  c.expected_cex_length = -1;
  return c;
}

}  // namespace

CircuitCase saturating_accumulator_safe(std::size_t width,
                                        std::uint64_t cap) {
  assert(cap < (1ULL << width));
  return saturating_impl(width, cap, cap, true,
                         param_name("saturate_safe", {width, cap}));
}

CircuitCase saturating_accumulator_unsafe(std::size_t width,
                                          std::uint64_t cap) {
  assert(cap + 1 < (1ULL << width));
  // Clamping at cap+1 lets the accumulator exceed cap.
  return saturating_impl(width, cap, cap + 1, false,
                         param_name("saturate_unsafe", {width, cap}));
}

CircuitCase twin_counters_safe(std::size_t width) {
  Aig aig;
  const Word c1 = make_latches(aig, width, 0, "c1");
  const Word c2 = make_latches(aig, width, 0, "c2");
  connect(aig, c1, increment(aig, c1));
  connect(aig, c2, increment(aig, c2));
  aig.add_bad(!equals(aig, c1, c2));
  return CircuitCase{param_name("twin_safe", {width}), "twin",
                     std::move(aig), true, -1};
}

CircuitCase twin_counters_unsafe(std::size_t width) {
  Aig aig;
  const AigLit stall = aig.add_input("stall");
  const Word c1 = make_latches(aig, width, 0, "c1");
  const Word c2 = make_latches(aig, width, 0, "c2");
  connect(aig, c1, increment(aig, c1));
  connect(aig, c2, mux_word(aig, stall, c2, increment(aig, c2)));
  aig.add_bad(!equals(aig, c1, c2));
  return CircuitCase{param_name("twin_unsafe", {width}), "twin",
                     std::move(aig), false, 1};
}

namespace {

/// Two-process mutex.  Each process: 2-bit state (00 idle, 01 want,
/// 10 critical); a turn latch arbitrates entry.
CircuitCase mutex_impl(bool buggy, const std::string& name) {
  Aig aig;
  const AigLit req0 = aig.add_input("req0");
  const AigLit req1 = aig.add_input("req1");
  const AigLit turn = aig.add_latch(aig::l_False, "turn");

  struct Proc {
    AigLit s0, s1;  // state bits: s1 s0
  };
  const Proc p0{aig.add_latch(aig::l_False, "p0_s0"),
                aig.add_latch(aig::l_False, "p0_s1")};
  const Proc p1{aig.add_latch(aig::l_False, "p1_s0"),
                aig.add_latch(aig::l_False, "p1_s1")};

  auto build = [&](const Proc& self, const Proc& other, AigLit req,
                   AigLit my_turn) {
    const AigLit idle = aig.make_and(!self.s1, !self.s0);
    const AigLit want = aig.make_and(!self.s1, self.s0);
    const AigLit crit = aig.make_and(self.s1, !self.s0);
    AigLit may_enter = my_turn;
    if (buggy) {
      // Bug 1: also enter when the other process looks idle.
      const AigLit other_idle = aig.make_and(!other.s1, !other.s0);
      may_enter = aig.make_or(my_turn, other_idle);
    }
    const AigLit to_want = aig.make_and(idle, req);
    const AigLit to_crit = aig.make_and(want, may_enter);
    // next s0: want stays want unless entering; idle→want sets s0.
    const AigLit n_s0 =
        aig.make_or(to_want, aig.make_and(want, !to_crit));
    // next s1: entering critical; correct processes exit after one cycle.
    AigLit n_s1 = to_crit;
    if (buggy) {
      // Bug 2: hold the critical section while the request stays up, but
      // the turn still toggles away (see leave0/leave1 below), so the
      // other process is eventually let in concurrently.
      n_s1 = aig.make_or(to_crit, aig.make_and(crit, req));
    }
    aig.set_next(self.s0, n_s0);
    aig.set_next(self.s1, n_s1);
    return crit;
  };

  const AigLit crit0 = build(p0, p1, req0, !turn);
  const AigLit crit1 = build(p1, p0, req1, turn);
  // Turn toggles when the owning process leaves the critical section.
  const AigLit leave0 = aig.make_and(crit0, !turn);
  const AigLit leave1 = aig.make_and(crit1, turn);
  aig.set_next(turn, aig.make_xor(turn, aig.make_or(leave0, leave1)));

  aig.add_bad(aig.make_and(crit0, crit1));
  CircuitCase c;
  c.name = name;
  c.family = "mutex";
  c.aig = std::move(aig);
  c.expected_safe = !buggy;
  c.expected_cex_length = -1;
  return c;
}

}  // namespace

CircuitCase mutex_safe() { return mutex_impl(false, "mutex_safe"); }
CircuitCase mutex_unsafe() { return mutex_impl(true, "mutex_unsafe"); }

}  // namespace pilot::circuits
