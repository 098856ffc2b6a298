/// Simulator tests: operator semantics against hand-computed oracles, trace
/// consistency checking, constrained random simulation, waveform rendering
/// (the Fig. 3 artefact) and its parse-back companion.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "sim/random_sim.hpp"
#include "sim/waveform.hpp"
#include "util/rng.hpp"

namespace genfv::sim {
namespace {

using ir::NodeRef;

TEST(Evaluate, CoreOperators) {
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 8);
  const NodeRef b = nm.mk_input("b", 8);
  Assignment env{{a, 0xF0}, {b, 0x0F}};
  EXPECT_EQ(evaluate(nm.mk_and(a, b), env), 0x00u);
  EXPECT_EQ(evaluate(nm.mk_or(a, b), env), 0xFFu);
  EXPECT_EQ(evaluate(nm.mk_add(a, b), env), 0xFFu);
  EXPECT_EQ(evaluate(nm.mk_sub(b, a), env), 0x1Fu);  // wraps mod 256
  EXPECT_EQ(evaluate(nm.mk_mul(a, b), env), (0xF0u * 0x0Fu) & 0xFFu);
  EXPECT_EQ(evaluate(nm.mk_neg(b), env), 0xF1u);
  EXPECT_EQ(evaluate(nm.mk_not(a), env), 0x0Fu);
  EXPECT_EQ(evaluate(nm.mk_ult(b, a), env), 1u);
  EXPECT_EQ(evaluate(nm.mk_slt(a, b), env), 1u);  // 0xF0 is negative signed
  EXPECT_EQ(evaluate(nm.mk_redand(a), env), 0u);
  EXPECT_EQ(evaluate(nm.mk_redor(a), env), 1u);
  EXPECT_EQ(evaluate(nm.mk_redxor(a), env), 0u);  // 4 ones
  EXPECT_EQ(evaluate(nm.mk_concat(a, b), env), 0xF00Fu);
  EXPECT_EQ(evaluate(nm.mk_extract(a, 7, 4), env), 0xFu);
  EXPECT_EQ(evaluate(nm.mk_zext(b, 16), env), 0x0Fu);
  EXPECT_EQ(evaluate(nm.mk_sext(a, 16), env), 0xFFF0u);
}

TEST(Evaluate, ShiftSemanticsIncludingOverflowAmounts) {
  ir::NodeManager nm;
  const NodeRef x = nm.mk_input("x", 8);
  const NodeRef s = nm.mk_input("s", 8);
  Assignment env{{x, 0x81}, {s, 1}};
  EXPECT_EQ(evaluate(nm.mk_shl(x, s), env), 0x02u);
  EXPECT_EQ(evaluate(nm.mk_lshr(x, s), env), 0x40u);
  EXPECT_EQ(evaluate(nm.mk_ashr(x, s), env), 0xC0u);  // sign fill
  env[s] = 9;  // amount >= width
  EXPECT_EQ(evaluate(nm.mk_shl(x, s), env), 0u);
  EXPECT_EQ(evaluate(nm.mk_lshr(x, s), env), 0u);
  EXPECT_EQ(evaluate(nm.mk_ashr(x, s), env), 0xFFu);
  env[x] = 0x41;  // positive
  EXPECT_EQ(evaluate(nm.mk_ashr(x, s), env), 0u);
}

TEST(Evaluate, DivisionConventions) {
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 8);
  const NodeRef b = nm.mk_input("b", 8);
  Assignment env{{a, 17}, {b, 5}};
  EXPECT_EQ(evaluate(nm.mk_udiv(a, b), env), 3u);
  EXPECT_EQ(evaluate(nm.mk_urem(a, b), env), 2u);
  env[b] = 0;
  EXPECT_EQ(evaluate(nm.mk_udiv(a, b), env), 0xFFu);
  EXPECT_EQ(evaluate(nm.mk_urem(a, b), env), 17u);
}

TEST(Evaluate, UnboundLeafThrows) {
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 8);
  EXPECT_THROW(evaluate(a, Assignment{}), UsageError);
}

TEST(Evaluate, ValuesMaskedToLeafWidth) {
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 4);
  Assignment env{{a, 0xFF}};  // over-wide binding is masked
  EXPECT_EQ(evaluate(a, env), 0xFu);
}

/// A tiny mod-6 counter system used by several tests.
ir::TransitionSystem counter_system(unsigned width = 4, std::uint64_t wrap = 5) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef c = ts.add_state("c", width);
  ts.set_init(c, nm.mk_const(0, width));
  ts.set_next(c, nm.mk_ite(nm.mk_eq(c, nm.mk_const(wrap, width)), nm.mk_const(0, width),
                           nm.mk_add(c, nm.mk_const(1, width))));
  return ts;
}

TEST(Step, AdvancesStateFunctions) {
  auto ts = counter_system();
  const NodeRef c = ts.lookup("c");
  Assignment env{{c, 4}};
  EXPECT_EQ(step(ts, env).at(c), 5u);
  env[c] = 5;
  EXPECT_EQ(step(ts, env).at(c), 0u);
}

TEST(RandomSim, TraceIsConsistentAndStartsAtReset) {
  auto ts = counter_system();
  RandomSimulator simulator(ts, 99);
  const Trace trace = simulator.run(20);
  ASSERT_EQ(trace.size(), 21u);
  EXPECT_EQ(trace.value(ts.lookup("c"), 0), 0u);
  EXPECT_TRUE(trace.is_consistent());
}

TEST(RandomSim, FalsifyFindsViolations) {
  auto ts = counter_system();
  auto& nm = ts.nm();
  const NodeRef c = ts.lookup("c");
  RandomSimulator simulator(ts, 5);
  // c != 3 is violated on cycle 3.
  const auto witness = simulator.falsify(nm.mk_ne(c, nm.mk_const(3, 4)), 16, 2);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->value(c, witness->size() - 1), 3u);
  // c <= 5 is a true invariant: no witness.
  EXPECT_FALSE(simulator.falsify(nm.mk_ule(c, nm.mk_const(5, 4)), 64, 4).has_value());
}

TEST(RandomSim, RespectsEnvironmentConstraints) {
  // A system with a reset input constrained inactive: random runs must keep
  // rst == 0 so the counter actually advances.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef rst = ts.add_input("rst", 1);
  const NodeRef c = ts.add_state("c", 8);
  ts.set_init(c, nm.mk_const(0, 8));
  ts.set_next(c, nm.mk_ite(rst, nm.mk_const(0, 8), nm.mk_add(c, nm.mk_const(1, 8))));
  ts.add_constraint(nm.mk_eq(rst, nm.mk_const(0, 1)));

  RandomSimulator simulator(ts, 3);
  const Trace trace = simulator.run(40);
  // Without constraint handling the counter would keep resetting; with it,
  // frame 40 must hold exactly 40.
  EXPECT_EQ(trace.value(c, 40), 40u);
}

TEST(RandomSim, SampleStatesCoversRuns) {
  auto ts = counter_system();
  RandomSimulator simulator(ts, 21);
  const auto samples = simulator.sample_states(10, 3);
  EXPECT_EQ(samples.size(), 33u);  // (10+1) frames x 3 restarts
}

TEST(Trace, FirstViolationIndex) {
  auto ts = counter_system();
  auto& nm = ts.nm();
  RandomSimulator simulator(ts, 1);
  const Trace trace = simulator.run(10);
  const auto frame = trace.first_violation(
      nm.mk_ne(ts.lookup("c"), nm.mk_const(2, 4)));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, 2u);
}

TEST(Waveform, RendersAllSignalsAndMarksFailure) {
  auto ts = counter_system();
  RandomSimulator simulator(ts, 1);
  const Trace trace = simulator.run(4);
  WaveformOptions options;
  options.failure_frame = 4;
  const std::string wave = render_waveform(trace, default_signals(ts), options);
  EXPECT_NE(wave.find("c"), std::string::npos);
  EXPECT_NE(wave.find("t4*"), std::string::npos);
  EXPECT_NE(wave.find("frame where the property fails"), std::string::npos);
  // 5 frames => 5 column separators beyond the label column in the header.
  EXPECT_NE(wave.find("t0"), std::string::npos);
}

TEST(Waveform, BitDiffCalloutNamesDifferingBits) {
  ir::TransitionSystem ts;
  const NodeRef a = ts.add_state("count1", 8);
  const NodeRef b = ts.add_state("count2", 8);
  ts.set_next(a, a);
  ts.set_next(b, b);
  Trace trace(&ts);
  trace.append({{a, 0xFF}, {b, 0x7F}});
  const std::string diff = render_bit_diff(trace, 0, "count1", a, "count2", b);
  EXPECT_NE(diff.find("bit 7"), std::string::npos);
  EXPECT_NE(diff.find("count1=1"), std::string::npos);
  EXPECT_NE(diff.find("count2=0"), std::string::npos);
  // Equal values produce no callout.
  trace.frame(0)[b] = 0xFF;
  EXPECT_TRUE(render_bit_diff(trace, 0, "count1", a, "count2", b).empty());
}

/// Property sweep: evaluate and fold must agree on random constant DAGs —
/// eval_op is shared, so this checks the folding plumbing (widths, params).
class FoldVsEval : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FoldVsEval, ConstantExpressionsFoldToEvaluatedValue) {
  util::Xoshiro256 rng(GetParam());
  ir::NodeManager nm;
  for (int i = 0; i < 200; ++i) {
    const unsigned w = 1 + static_cast<unsigned>(rng.below(16));
    const std::uint64_t va = rng.bits(w);
    const std::uint64_t vb = rng.bits(w);
    const NodeRef ca = nm.mk_const(va, w);
    const NodeRef cb = nm.mk_const(vb, w);
    // Folding happens at construction: the result must be a constant whose
    // value equals interpreting the same op over input leaves.
    const NodeRef ia = nm.mk_input("ia" + std::to_string(i), w);
    const NodeRef ib = nm.mk_input("ib" + std::to_string(i), w);
    Assignment env{{ia, va}, {ib, vb}};
    struct OpPair {
      NodeRef folded;
      NodeRef symbolic;
    };
    const OpPair pairs[] = {
        {nm.mk_add(ca, cb), nm.mk_add(ia, ib)},
        {nm.mk_sub(ca, cb), nm.mk_sub(ia, ib)},
        {nm.mk_mul(ca, cb), nm.mk_mul(ia, ib)},
        {nm.mk_and(ca, cb), nm.mk_and(ia, ib)},
        {nm.mk_xor(ca, cb), nm.mk_xor(ia, ib)},
        {nm.mk_ult(ca, cb), nm.mk_ult(ia, ib)},
        {nm.mk_sle(ca, cb), nm.mk_sle(ia, ib)},
        {nm.mk_lshr(ca, cb), nm.mk_lshr(ia, ib)},
        {nm.mk_udiv(ca, cb), nm.mk_udiv(ia, ib)},
    };
    for (const auto& [folded, symbolic] : pairs) {
      ASSERT_TRUE(folded->is_const());
      ASSERT_EQ(folded->value(), evaluate(symbolic, env));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldVsEval, ::testing::Values(3, 17, 29));

}  // namespace
}  // namespace genfv::sim
