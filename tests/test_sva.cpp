/// SVA frontend tests: the three accepted textual shapes, every supported
/// operator/system function, and — crucially — the temporal semantics of
/// $past / |=> verified against golden traces through the simulator and the
/// k-induction engine.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "hdl/elaborator.hpp"
#include "mc/kinduction.hpp"
#include "sim/random_sim.hpp"
#include "sva/compiler.hpp"

namespace genfv::sva {
namespace {

using ir::NodeRef;

hdl::ElaborationResult pipeline_design() {
  return hdl::elaborate_source(R"(
module pipe (input clk, rst, input [7:0] d, output logic [7:0] q1, q2);
  always_ff @(posedge clk) begin
    if (rst) begin
      q1 <= 8'h0;
      q2 <= 8'h0;
    end else begin
      q1 <= d;
      q2 <= q1;
    end
  end
endmodule
)");
}

TEST(SvaParser, AcceptsAllThreeShapes) {
  const auto block = parse_property("property p1; a |-> b; endproperty");
  EXPECT_EQ(block.name, "p1");
  const auto assertion = parse_property("assert property (a == b);");
  EXPECT_TRUE(assertion.name.empty());
  const auto bare = parse_property("a != b");
  EXPECT_TRUE(bare.name.empty());
  EXPECT_NE(bare.expr, nullptr);
}

TEST(SvaParser, RejectsGarbage) {
  EXPECT_THROW(parse_property("property ; x; endproperty"), ParseError);
  EXPECT_THROW(parse_property("a == b extra"), ParseError);
  EXPECT_THROW(parse_property("assert property a"), ParseError);
}

TEST(SvaCompiler, ListingsTwoAndThreeCompile) {
  auto elab = hdl::elaborate_source(R"(
module sync_counters (input clk, rst, output logic [31:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 32'b0;
      count2 <= 32'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
)");
  PropertyCompiler compiler(elab.ts);
  const auto target =
      compiler.compile("property equal_count; &count1 |-> &count2; endproperty");
  EXPECT_EQ(target.name, "equal_count");
  const auto helper = compiler.compile("property helper; count1 == count2; endproperty");
  auto& nm = elab.ts.nm();
  EXPECT_EQ(helper.expr, nm.mk_eq(elab.ts.lookup("count1"), elab.ts.lookup("count2")));
}

TEST(SvaCompiler, UnknownSignalIsACompileError) {
  auto elab = pipeline_design();
  PropertyCompiler compiler(elab.ts);
  EXPECT_THROW(compiler.compile("ghost == 1'b0"), ParseError);
}

TEST(SvaCompiler, PastAddsExactlyOneAuxRegisterPerDistinctExpr) {
  auto elab = pipeline_design();
  const std::size_t states_before = elab.ts.states().size();
  PropertyCompiler compiler(elab.ts);
  (void)compiler.compile("$past(q1) == q2 || $past(rst)");
  const std::size_t after_first = elab.ts.states().size();
  EXPECT_EQ(after_first, states_before + 2);  // $past(q1) and $past(rst)
  // Re-using $past(q1) must not add another register.
  (void)compiler.compile("$past(q1) == $past(q1)");
  EXPECT_EQ(elab.ts.states().size(), after_first);
}

TEST(SvaCompiler, PastSemanticsProvenByInduction) {
  auto elab = pipeline_design();
  PropertyCompiler compiler(elab.ts);
  // q2 is q1 delayed; $past(q1) == q2 unless reset interfered (rst is
  // constrained inactive, and both start at 0, so it holds outright).
  const auto prop = compiler.compile("$past(q1) == q2");
  mc::KInductionEngine engine(elab.ts, {.max_steps = 4});
  EXPECT_EQ(engine.prove(prop.expr).verdict, mc::Verdict::Proven);
}

TEST(SvaCompiler, PastDepthTwo) {
  auto elab = pipeline_design();
  PropertyCompiler compiler(elab.ts);
  const auto prop = compiler.compile("$past(d, 2) == q2");
  mc::KInductionEngine engine(elab.ts, {.max_steps = 4});
  EXPECT_EQ(engine.prove(prop.expr).verdict, mc::Verdict::Proven);
}

TEST(SvaCompiler, NonOverlappingImplication) {
  auto elab = hdl::elaborate_source(R"(
module hs (input clk, rst, input req, output logic ack);
  always_ff @(posedge clk) begin
    if (rst) ack <= 1'b0;
    else ack <= req;
  end
endmodule
)");
  PropertyCompiler compiler(elab.ts);
  // req |=> ack: a request is acknowledged in the following cycle.
  const auto prop = compiler.compile("property p; req |=> ack; endproperty");
  mc::KInductionEngine engine(elab.ts, {.max_steps = 4});
  EXPECT_EQ(engine.prove(prop.expr).verdict, mc::Verdict::Proven);

  // The overlapping form must NOT hold (ack lags by one cycle).
  const auto bad = compiler.compile("property q; req |-> ack; endproperty");
  mc::KInductionEngine engine2(elab.ts, {.max_steps = 8});
  EXPECT_EQ(engine2.prove(bad.expr).verdict, mc::Verdict::Falsified);
}

TEST(SvaCompiler, RoseFellStableChanged) {
  auto elab = hdl::elaborate_source(R"(
module t (input clk, rst, output logic tog);
  always_ff @(posedge clk) begin
    if (rst) tog <= 1'b0;
    else tog <= !tog;
  end
endmodule
)");
  PropertyCompiler compiler(elab.ts);
  // A toggler rises exactly when it is 1 now (it was 0 before): $rose(tog) == tog.
  const auto rose = compiler.compile("$rose(tog) == tog");
  // $fell is the complement on a toggler (after the first cycle): tolerate
  // the init frame via |->.
  const auto fell = compiler.compile("!tog |-> ($fell(tog) || !$past(tog))");
  const auto changed = compiler.compile("$changed(tog) || $stable(tog)");  // tautology
  mc::KInductionEngine engine(elab.ts, {.max_steps = 4});
  EXPECT_EQ(engine.prove(rose.expr).verdict, mc::Verdict::Proven);
  EXPECT_EQ(engine.prove(fell.expr).verdict, mc::Verdict::Proven);
  EXPECT_EQ(engine.prove(changed.expr).verdict, mc::Verdict::Proven);
}

TEST(SvaCompiler, CountonesOnehotAgainstPopcountOracle) {
  ir::TransitionSystem ts;
  const NodeRef x = ts.add_input("x", 6);
  PropertyCompiler compiler(ts);
  const NodeRef co = compiler.compile_expr("$countones(x) == 3'd2");
  const NodeRef oh = compiler.compile_expr("$onehot(x)");
  const NodeRef oh0 = compiler.compile_expr("$onehot0(x)");
  for (std::uint64_t v = 0; v < 64; ++v) {
    const int ones = std::popcount(v);
    const sim::Assignment env{{x, v}};
    EXPECT_EQ(sim::evaluate(co, env), ones == 2 ? 1u : 0u) << v;
    EXPECT_EQ(sim::evaluate(oh, env), ones == 1 ? 1u : 0u) << v;
    EXPECT_EQ(sim::evaluate(oh0, env), ones <= 1 ? 1u : 0u) << v;
  }
}

TEST(SvaCompiler, ReductionsBitSelectsAndArithmetic) {
  ir::TransitionSystem ts;
  const NodeRef x = ts.add_input("x", 8);
  const NodeRef y = ts.add_input("y", 8);
  PropertyCompiler compiler(ts);
  const NodeRef expr = compiler.compile_expr("((x ^ y) == 8'h0) |-> (&x == &y)");
  const sim::Assignment env{{x, 0xFF}, {y, 0xFF}};
  EXPECT_EQ(sim::evaluate(expr, env), 1u);
  const NodeRef arith = compiler.compile_expr("(x + y) - y == x");
  EXPECT_EQ(sim::evaluate(arith, {{x, 200}, {y, 123}}), 1u);
  const NodeRef sel = compiler.compile_expr("x[7:4] == 4'hA |-> x[7]");
  EXPECT_EQ(sim::evaluate(sel, {{x, 0xA0}, {y, 0}}), 1u);
}

TEST(SvaCompiler, IsUnknownIsAlwaysFalseInTwoState) {
  ir::TransitionSystem ts;
  (void)ts.add_input("x", 4);
  PropertyCompiler compiler(ts);
  const NodeRef e = compiler.compile_expr("!$isunknown(x)");
  EXPECT_TRUE(e->is_const());
  EXPECT_EQ(e->value(), 1u);
}

TEST(SvaCompiler, UnsupportedSystemFunctionRejected) {
  ir::TransitionSystem ts;
  (void)ts.add_input("x", 4);
  PropertyCompiler compiler(ts);
  EXPECT_THROW(compiler.compile_expr("$random(x)"), ParseError);
  EXPECT_THROW(compiler.compile_expr("$past(x, 0)"), ParseError);
  EXPECT_THROW(compiler.compile_expr("$past()"), ParseError);
}

TEST(SvaCompiler, AddPropertyHelperRegistersOnSystem) {
  auto elab = pipeline_design();
  const std::size_t idx = add_property(elab.ts, "q1 == q1", ir::PropertyRole::Target,
                                       "fallback_name");
  EXPECT_EQ(elab.ts.property(idx).name, "fallback_name");
  const std::size_t idx2 =
      add_property(elab.ts, "property named; q1 == q1; endproperty");
  EXPECT_EQ(elab.ts.property(idx2).name, "named");
}

}  // namespace
}  // namespace genfv::sva
