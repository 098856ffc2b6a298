/// Tests for the transition-system serializer, the VCD exporter and the
/// non-LLM DirectMinerFlow baseline.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/direct_miner_flow.hpp"
#include "ir/serialize.hpp"
#include "mc/kinduction.hpp"
#include "sim/random_sim.hpp"
#include "sim/vcd.hpp"

namespace genfv {
namespace {

class SerializeZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeZoo, RoundTripPreservesStructureAndSemantics) {
  auto task = designs::make_task(GetParam());
  const std::string text = ir::serialize(task.ts);
  ir::TransitionSystem copy = ir::deserialize(text);

  // Structure.
  ASSERT_EQ(copy.inputs().size(), task.ts.inputs().size());
  ASSERT_EQ(copy.states().size(), task.ts.states().size());
  ASSERT_EQ(copy.constraints().size(), task.ts.constraints().size());
  ASSERT_EQ(copy.properties().size(), task.ts.properties().size());
  ASSERT_EQ(copy.signals().size(), task.ts.signals().size());
  EXPECT_EQ(copy.name(), task.ts.name());
  for (std::size_t i = 0; i < copy.properties().size(); ++i) {
    EXPECT_EQ(copy.properties()[i].name, task.ts.properties()[i].name);
    EXPECT_EQ(copy.properties()[i].role, task.ts.properties()[i].role);
  }

  // Semantics: run lock-step random simulations of original and copy with
  // the same seed; every named signal must agree on every frame.
  sim::RandomSimulator sim_a(task.ts, 991);
  sim::RandomSimulator sim_b(copy, 991);
  const sim::Trace trace_a = sim_a.run(60);
  const sim::Trace trace_b = sim_b.run(60);
  for (std::size_t f = 0; f < trace_a.size(); ++f) {
    for (const auto& s : task.ts.states()) {
      const ir::NodeRef other = copy.lookup(s.var->name());
      ASSERT_NE(other, nullptr);
      ASSERT_EQ(trace_a.value(s.var, f), trace_b.value(other, f))
          << GetParam() << " state " << s.var->name() << " frame " << f;
    }
  }

  // A second round trip must also parse (byte-identity is NOT guaranteed:
  // commutative operands are normalized by node id, which is assigned in
  // construction order and may differ after a round trip).
  EXPECT_NO_THROW(ir::deserialize(ir::serialize(copy)));
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const auto& d : designs::all_designs()) names.push_back(d.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Zoo, SerializeZoo, ::testing::ValuesIn(zoo_names()),
                         [](const auto& info) { return info.param; });

TEST(Serialize, DeserializedSystemIsProvable) {
  auto task = designs::make_task("sync_counters");
  ir::TransitionSystem copy = ir::deserialize(ir::serialize(task.ts));
  auto& nm = copy.nm();
  const ir::NodeRef helper = nm.mk_eq(copy.lookup("count1"), copy.lookup("count2"));
  mc::KInductionEngine engine(copy, {.max_steps = 4, .lemmas = {helper}});
  EXPECT_EQ(engine.prove(copy.property(0).expr).verdict, mc::Verdict::Proven);
}

TEST(Serialize, Diagnostics) {
  EXPECT_THROW(ir::deserialize(""), ParseError);
  EXPECT_THROW(ir::deserialize("bogus header\n"), ParseError);
  EXPECT_THROW(ir::deserialize("genfv-ts 1\n1 add 4 7 8\n"), ParseError);  // fwd refs
  EXPECT_THROW(ir::deserialize("genfv-ts 1\n1 frobnicate 4\n"), ParseError);
  EXPECT_THROW(ir::deserialize("genfv-ts 1\n1 const 4 3\ninit 1 1\n"), Error)
      << "init on a non-state must be rejected";
  // Comments and blank lines are fine.
  EXPECT_NO_THROW(ir::deserialize("genfv-ts 1\n; comment\n\n1 input 4 x\n"));
}

TEST(Serialize, WidthMismatchRejected) {
  EXPECT_THROW(ir::deserialize("genfv-ts 1\n1 input 4 x\n2 not 5 1\n"), Error);
}

TEST(Vcd, ContainsHeaderVarsAndChanges) {
  auto task = designs::make_task("sync_counters");
  sim::RandomSimulator simulator(task.ts, 5);
  const sim::Trace trace = simulator.run(4);
  const std::string vcd =
      sim::render_vcd(trace, sim::default_signals(task.ts), "sync_counters");
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module sync_counters $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 32 "), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 "), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#4"), std::string::npos);
  // Counter value 2 at t2 appears as a binary vector change.
  EXPECT_NE(vcd.find("b00000000000000000000000000000010 "), std::string::npos);
}

TEST(Vcd, OnlyChangedValuesAreEmittedAfterFrameZero) {
  // A hold register never re-emits its value.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const ir::NodeRef held = ts.add_state("held", 4);
  ts.set_init(held, nm.mk_const(9, 4));
  ts.set_next(held, held);
  sim::RandomSimulator simulator(ts, 1);
  const sim::Trace trace = simulator.run(5);
  const std::string vcd = sim::render_vcd(trace, sim::default_signals(ts));
  // Exactly one occurrence of the value change for `held`.
  std::size_t count = 0;
  for (std::size_t pos = vcd.find("b1001 "); pos != std::string::npos;
       pos = vcd.find("b1001 ", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(DirectMinerFlow, ClosesTheZooWithoutAnyModel) {
  // The non-LLM baseline: all mining passes, no noise, same review gate, one
  // round with no model latency.
  for (const auto& info : designs::all_designs()) {
    auto task = designs::make_task(info);
    flow::FlowOptions options;
    options.engine.max_k = 8;
    const flow::FlowReport report = flow::DirectMinerFlow(options).run(task);
    EXPECT_TRUE(report.all_targets_proven()) << info.name << "\n" << report.to_string();
    EXPECT_EQ(report.flow, "direct_miner");
    ASSERT_EQ(report.iterations.size(), 1u);
    EXPECT_EQ(report.llm_seconds, 0.0);
    EXPECT_GT(report.candidates_total(), 0u) << info.name;
  }
}

}  // namespace
}  // namespace genfv
