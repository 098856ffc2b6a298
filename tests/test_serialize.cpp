/// Tests for the transition-system serializer, the VCD exporter and the
/// non-LLM direct-miner baseline.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/job.hpp"
#include "ir/serialize.hpp"
#include "sim/random_sim.hpp"
#include "sim/vcd.hpp"

namespace genfv {
namespace {

class SerializeZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(SerializeZoo, DumpNamesEveryDeclarationAndIsStableAcrossElaborations) {
  const auto task = designs::make_task(GetParam());
  const std::string text = ir::serialize(task.ts);
  const auto has = [&text](const std::string& piece) {
    return text.find(piece) != std::string::npos;
  };
  ASSERT_EQ(text.rfind("genfv-ts 1\nname " + task.ts.name() + "\n", 0), 0u);
  for (const ir::NodeRef input : task.ts.inputs()) {
    EXPECT_TRUE(has(" input " + std::to_string(input->width()) + " " + input->name() + "\n"))
        << input->name();
  }
  for (const ir::StateVar& state : task.ts.states()) {
    const ir::NodeRef var = state.var;
    EXPECT_TRUE(has(" state " + std::to_string(var->width()) + " " + var->name() + "\n"))
        << var->name();
  }
  for (const ir::Property& property : task.ts.properties()) {
    const char* role = property.role == ir::PropertyRole::Target      ? "target"
                       : property.role == ir::PropertyRole::Candidate ? "candidate"
                                                                      : "lemma";
    EXPECT_TRUE(has(std::string("\nproperty ") + role + " " + property.name + " "))
        << property.name;
  }
  for (const auto& [name, expr] : task.ts.signals()) {
    EXPECT_TRUE(has("\nsignal " + name + " ")) << name;
  }
  // A second elaboration (a fresh NodeManager) dumps the same bytes, so two
  // dumps of one design can be diffed.
  EXPECT_EQ(ir::serialize(designs::make_task(GetParam()).ts), text);
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const auto& d : designs::all_designs()) names.push_back(d.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Zoo, SerializeZoo, ::testing::ValuesIn(zoo_names()),
                         [](const auto& info) { return info.param; });

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
  // The non-LLM baseline on the CLI's `--flow direct`: all mining passes, no
  // noise, same review gate, one round with no model latency.
  flow::JobSpec spec = flow::JobSpec::cli();
  spec.flow = flow::FlowKind::Direct;
  for (const auto& info : designs::all_designs()) {
    auto task = designs::make_task(info);
    const flow::FlowReport report = flow::run_flow(spec, task);
    EXPECT_TRUE(report.all_targets_proven()) << info.name << "\n" << report.to_string();
    EXPECT_EQ(report.flow, "direct_miner");
    ASSERT_EQ(report.iterations.size(), 1u);
    EXPECT_EQ(report.llm_seconds, 0.0);
    EXPECT_GT(report.candidates_total(), 0u) << info.name;
  }
}

}  // namespace
}  // namespace genfv
