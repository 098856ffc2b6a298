/// Simulator tests: operator semantics against hand-computed oracles, trace
/// consistency checking, constrained random simulation (the compiled
/// simulator checked frame by frame against the reference interpreter),
/// waveform rendering (the Fig. 3 artefact) and its parse-back companion.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/session.hpp"
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

/// Random simulation spelled out over the reference interpreter: the same
/// draws in the same order as RandomSimulator, every value computed by
/// sim::evaluate / sim::step.
class ReferenceSimulator {
 public:
  ReferenceSimulator(const ir::TransitionSystem& ts, std::uint64_t seed) : ts_(ts), rng_(seed) {}

  Assignment reset_state() {
    const Assignment init_env = random_inputs();
    Assignment state;
    for (const auto& s : ts_.states()) {
      state[s.var] = s.init != nullptr ? evaluate(s.init, init_env) : rng_.bits(s.var->width());
    }
    return state;
  }

  Trace run(std::size_t steps) { return run_from(reset_state(), steps); }

  Trace run_from(Assignment state, std::size_t steps) {
    Trace trace(&ts_);
    for (std::size_t t = 0; t <= steps; ++t) {
      Assignment env;
      for (int attempt = 0; attempt < 64; ++attempt) {
        env = random_inputs();
        for (const auto& [k, v] : state) env[k] = v;
        const bool ok = std::all_of(ts_.constraints().begin(), ts_.constraints().end(),
                                    [&](NodeRef c) { return evaluate(c, env) != 0; });
        if (ok) break;
      }
      if (t < steps) state = step(ts_, env);
      trace.append(std::move(env));
    }
    return trace;
  }

  std::optional<Trace> falsify(NodeRef expr, std::size_t steps, std::size_t restarts) {
    for (std::size_t r = 0; r < restarts; ++r) {
      const Trace trace = run(steps);
      if (const auto frame = trace.first_violation(expr)) {
        Trace witness(&ts_);
        for (std::size_t i = 0; i <= *frame; ++i) witness.append(trace.frame(i));
        return witness;
      }
    }
    return std::nullopt;
  }

 private:
  Assignment random_inputs() {
    Assignment env;
    for (const NodeRef in : ts_.inputs()) env[in] = rng_.bits(in->width());
    return env;
  }

  const ir::TransitionSystem& ts_;
  util::Xoshiro256 rng_;
};

void expect_same_frames(const Trace& compiled, const Trace& reference, const std::string& what) {
  ASSERT_EQ(compiled.size(), reference.size()) << what;
  for (std::size_t f = 0; f < compiled.size(); ++f) {
    EXPECT_EQ(compiled.frame(f), reference.frame(f)) << what << ", frame " << f;
  }
}

/// Every zoo design and every golden-corpus file.
std::vector<flow::VerificationTask> all_systems() {
  std::vector<flow::VerificationTask> tasks;
  for (const auto& info : designs::all_designs()) tasks.push_back(designs::make_task(info));
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(GENFV_TEST_CORPUS_DIR)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    tasks.push_back(flow::VerificationTask::from_file(file.string()));
    tasks.back().name = file.filename().string();
  }
  return tasks;
}

TEST(CompiledSim, RunsMatchTheReferenceInterpreterOnEverySystem) {
  const auto tasks = all_systems();
  ASSERT_GE(tasks.size(), 20u);
  for (const auto& task : tasks) {
    RandomSimulator compiled(task.ts, 0xD1FF);
    ReferenceSimulator reference(task.ts, 0xD1FF);
    // Two runs per simulator: the second starts where the first left the RNG.
    expect_same_frames(compiled.run(40), reference.run(40), task.name + " run 1");
    expect_same_frames(compiled.run(40), reference.run(40), task.name + " run 2");
    const Assignment state = reference.reset_state();
    EXPECT_EQ(compiled.reset_state(), state) << task.name;
    expect_same_frames(compiled.run_from(state, 12), reference.run_from(state, 12),
                       task.name + " run_from");

    const auto samples = compiled.sample_states(12, 3);
    ASSERT_EQ(samples.size(), 39u) << task.name;
    for (std::size_t r = 0; r < 3; ++r) {
      const Trace expected = reference.run(12);
      for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(samples[r * 13 + f], expected.frame(f)) << task.name << " sample " << r;
      }
    }
  }
}

TEST(CompiledSim, FalsifyWitnessesMatchTheReferenceInterpreter) {
  std::size_t witnesses = 0;
  for (auto& task : all_systems()) {
    // Watch each target plus "the first state never takes the value it
    // holds at frame 9 of a reference run", which random runs do violate.
    std::vector<NodeRef> watched = task.target_exprs();
    if (!task.ts.states().empty()) {
      const NodeRef s0 = task.ts.states().front().var;
      const std::uint64_t seen = ReferenceSimulator(task.ts, 7).run(9).value(s0, 9);
      watched.push_back(task.ts.nm().mk_ne(s0, task.ts.nm().mk_const(seen, s0->width())));
    }
    for (std::size_t i = 0; i < watched.size(); ++i) {
      const std::uint64_t seed = 0xFA15 + i;
      const auto compiled = RandomSimulator(task.ts, seed).falsify(watched[i], 24, 3);
      const auto reference = ReferenceSimulator(task.ts, seed).falsify(watched[i], 24, 3);
      const std::string what = task.name + " watch " + std::to_string(i);
      ASSERT_EQ(compiled.has_value(), reference.has_value()) << what;
      if (!compiled) continue;
      ++witnesses;
      expect_same_frames(*compiled, *reference, what);
      EXPECT_EQ(compiled->value(watched[i], compiled->size() - 1), 0u) << what;
    }
  }
  EXPECT_GE(witnesses, 15u);
}

TEST(CompiledSim, ExhaustedRejectionKeepsTheLastDraw) {
  // Once c == 3 the first constraint fails on every draw; after 64 attempts
  // the frame keeps the last draw, and d's next function (x ^ 0x5A, shared
  // with the second constraint) must see that draw.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef x = ts.add_input("x", 8);
  const NodeRef c = ts.add_state("c", 4);
  const NodeRef d = ts.add_state("d", 8);
  const NodeRef three = nm.mk_const(3, 4);
  const NodeRef y = nm.mk_xor(x, nm.mk_const(0x5A, 8));
  ts.set_init(c, nm.mk_const(0, 4));
  ts.set_next(c, nm.mk_ite(nm.mk_eq(c, three), c, nm.mk_add(c, nm.mk_const(1, 4))));
  ts.set_next(d, y);
  ts.add_constraint(nm.mk_ne(c, three));
  ts.add_constraint(nm.mk_ult(y, nm.mk_const(0xF0, 8)));
  expect_same_frames(RandomSimulator(ts, 8).run(8), ReferenceSimulator(ts, 8).run(8),
                     "exhausted rejection");
}

TEST(CompiledSim, RegistersLatchTogether) {
  // a' = b and b' = a: every next value is read before any state moves.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef a = ts.add_state("a", 4);
  const NodeRef b = ts.add_state("b", 4);
  ts.set_init(a, nm.mk_const(1, 4));
  ts.set_init(b, nm.mk_const(2, 4));
  ts.set_next(a, b);
  ts.set_next(b, a);
  const Trace trace = RandomSimulator(ts, 1).run(3);
  expect_same_frames(trace, ReferenceSimulator(ts, 1).run(3), "swap");
  EXPECT_EQ(trace.value(a, 3), 2u);
  EXPECT_EQ(trace.value(b, 3), 1u);
}

TEST(CompiledSim, UnboundLeavesThrowUsageError) {
  auto ts = counter_system();
  auto& nm = ts.nm();
  const NodeRef c = ts.lookup("c");
  const NodeRef ghost = nm.mk_input("ghost", 4);
  // A watched expression over a leaf outside the system.
  EXPECT_THROW(RandomSimulator(ts, 1).falsify(nm.mk_ne(c, ghost), 8, 1), UsageError);
  // A run_from state that leaves a register unbound.
  EXPECT_THROW(RandomSimulator(ts, 1).run_from(Assignment{}, 8), UsageError);
  // An init that reads a register: inits see only the reset's inputs.
  const NodeRef d = ts.add_state("d", 4);
  ts.set_init(d, c);
  ts.set_next(d, c);
  EXPECT_THROW(RandomSimulator(ts, 1).run(8), UsageError);
  // A constraint over a leaf outside the system.
  ts.set_init(d, nm.mk_const(0, 4));
  EXPECT_EQ(RandomSimulator(ts, 1).run(8).size(), 9u);
  ts.add_constraint(nm.mk_eq(ghost, nm.mk_const(0, 4)));
  EXPECT_THROW(RandomSimulator(ts, 1).run(8), UsageError);
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
