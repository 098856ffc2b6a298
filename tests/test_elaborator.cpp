/// Elaboration tests: RTL -> transition-system mapping, reset inference
/// (async, sync, active-low), Verilog scheduling semantics (blocking vs
/// nonblocking, hold), comb networks and their diagnostics — each verified
/// end-to-end through the reference simulator.

#include <gtest/gtest.h>

#include "hdl/elaborator.hpp"
#include "sim/random_sim.hpp"

namespace genfv::hdl {
namespace {

using ir::NodeRef;

TEST(Elaborator, PaperListing1Structure) {
  const auto result = elaborate_source(R"(
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
  EXPECT_EQ(result.clock, "clk");
  EXPECT_EQ(result.reset, "rst");
  EXPECT_FALSE(result.reset_active_low);
  const auto& ts = result.ts;
  EXPECT_EQ(ts.name(), "sync_counters");
  ASSERT_EQ(ts.inputs().size(), 1u);  // rst only; clk is implicit
  EXPECT_EQ(ts.inputs()[0]->name(), "rst");
  ASSERT_EQ(ts.states().size(), 2u);
  for (const auto& s : ts.states()) {
    ASSERT_NE(s.init, nullptr);
    EXPECT_TRUE(s.init->is_const());
    EXPECT_EQ(s.init->value(), 0u);
  }
  // The reset-inactive constraint is added by default.
  ASSERT_EQ(ts.constraints().size(), 1u);
}

TEST(Elaborator, SimulationMatchesRtlIntent) {
  auto result = elaborate_source(R"(
module counter (input clk, rst, input en, output logic [7:0] q);
  always_ff @(posedge clk) begin
    if (rst) q <= 8'h0;
    else if (en) q <= q + 8'h1;
  end
endmodule
)");
  auto& ts = result.ts;
  const NodeRef q = ts.lookup("q");
  const NodeRef en = ts.lookup("en");
  const NodeRef rst = ts.lookup("rst");
  // en=1, rst=0: increments. en=0: holds.
  sim::Assignment env{{q, 5}, {en, 1}, {rst, 0}};
  EXPECT_EQ(sim::step(ts, env).at(q), 6u);
  env[en] = 0;
  EXPECT_EQ(sim::step(ts, env).at(q), 5u);  // hold without else-branch
  env[rst] = 1;
  EXPECT_EQ(sim::step(ts, env).at(q), 0u);  // sync reset dominates
}

TEST(Elaborator, SyncResetInferredByNameHeuristic) {
  const auto result = elaborate_source(R"(
module m (input clk, rst, input d, output logic q);
  always_ff @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
)");
  EXPECT_EQ(result.reset, "rst");
  ASSERT_NE(result.ts.states()[0].init, nullptr);
  EXPECT_EQ(result.ts.states()[0].init->value(), 0u);
}

TEST(Elaborator, ActiveLowAsyncReset) {
  const auto result = elaborate_source(R"(
module m (input clk, rst_n, input d, output logic q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b1;
    else q <= d;
  end
endmodule
)");
  EXPECT_EQ(result.reset, "rst_n");
  EXPECT_TRUE(result.reset_active_low);
  EXPECT_EQ(result.ts.states()[0].init->value(), 1u);
  // Constraint holds rst_n high (inactive).
  ASSERT_EQ(result.ts.constraints().size(), 1u);
  const NodeRef rst_n = result.ts.lookup("rst_n");
  EXPECT_EQ(sim::evaluate(result.ts.constraints()[0], {{rst_n, 1}}), 1u);
  EXPECT_EQ(sim::evaluate(result.ts.constraints()[0], {{rst_n, 0}}), 0u);
}

TEST(Elaborator, DeclarationInitializerWinsOverResetDerivation) {
  const auto result = elaborate_source(R"(
module m (input clk, input d, output logic q);
  logic r = 1'b1;
  always_ff @(posedge clk) begin
    r <= d;
    q <= r;
  end
endmodule
)");
  const ir::StateVar* r = result.ts.state_of(result.ts.lookup("r"));
  ASSERT_NE(r, nullptr);
  ASSERT_NE(r->init, nullptr);
  EXPECT_EQ(r->init->value(), 1u);
  // q has no initializer and no reset: unconstrained.
  const ir::StateVar* q = result.ts.state_of(result.ts.lookup("q"));
  EXPECT_EQ(q->init, nullptr);
}

TEST(Elaborator, BlockingVsNonblockingScheduling) {
  // Classic swap: nonblocking RHS reads pre-clock values.
  auto result = elaborate_source(R"(
module swap (input clk, output logic [3:0] a, b);
  always_ff @(posedge clk) begin
    a <= b;
    b <= a;
  end
endmodule
)");
  auto& ts = result.ts;
  sim::Assignment env{{ts.lookup("a"), 3}, {ts.lookup("b"), 9}};
  const auto next = sim::step(ts, env);
  EXPECT_EQ(next.at(ts.lookup("a")), 9u);
  EXPECT_EQ(next.at(ts.lookup("b")), 3u);
}

TEST(Elaborator, CombBlocksAndAssignNetworksInDependencyOrder) {
  auto result = elaborate_source(R"(
module net (input [3:0] x, output [3:0] out);
  wire [3:0] mid;
  wire [3:0] top;
  assign out = top + 4'h1;
  assign top = mid ^ 4'h3;
  assign mid = x & 4'hC;
endmodule
)");
  auto& ts = result.ts;
  const NodeRef out = ts.lookup("out");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(sim::evaluate(out, {{ts.lookup("x"), 0x5}}), ((0x5u & 0xC) ^ 0x3) + 1);
}

TEST(Elaborator, AlwaysCombWithControlFlow) {
  auto result = elaborate_source(R"(
module sel (input [1:0] s, input [7:0] a, b, output logic [7:0] y);
  always_comb begin
    if (s == 2'd0) y = a;
    else if (s == 2'd1) y = b;
    else y = a + b;
  end
endmodule
)");
  auto& ts = result.ts;
  const NodeRef y = ts.lookup("y");
  sim::Assignment env{{ts.lookup("s"), 0}, {ts.lookup("a"), 10}, {ts.lookup("b"), 20}};
  EXPECT_EQ(sim::evaluate(y, env), 10u);
  env[ts.lookup("s")] = 1;
  EXPECT_EQ(sim::evaluate(y, env), 20u);
  env[ts.lookup("s")] = 3;
  EXPECT_EQ(sim::evaluate(y, env), 30u);
}

TEST(Elaborator, CaseStatementFirstMatchWins) {
  auto result = elaborate_source(R"(
module c (input clk, input [1:0] s, output logic [3:0] q);
  always_ff @(posedge clk) begin
    case (s)
      2'd0: q <= 4'h1;
      2'd1, 2'd2: q <= 4'h2;
      default: q <= 4'hF;
    endcase
  end
endmodule
)");
  auto& ts = result.ts;
  const NodeRef q = ts.lookup("q");
  const NodeRef s = ts.lookup("s");
  sim::Assignment env{{q, 0}, {s, 0}};
  EXPECT_EQ(sim::step(ts, env).at(q), 1u);
  env[s] = 2;
  EXPECT_EQ(sim::step(ts, env).at(q), 2u);
  env[s] = 3;
  EXPECT_EQ(sim::step(ts, env).at(q), 0xFu);
}

TEST(Elaborator, PartSelectAndBitSelectLvalues) {
  auto result = elaborate_source(R"(
module ps (input clk, input [3:0] lo, input b, output logic [7:0] q);
  always_ff @(posedge clk) begin
    q[3:0] <= lo;
    q[7] <= b;
  end
endmodule
)");
  auto& ts = result.ts;
  const NodeRef q = ts.lookup("q");
  sim::Assignment env{{q, 0x55}, {ts.lookup("lo"), 0xA}, {ts.lookup("b"), 1}};
  // bits [6:4] hold old value 0x5 = 0b101.
  EXPECT_EQ(sim::step(ts, env).at(q), 0xDAu);  // 1 101 1010
}

TEST(Elaborator, DynamicIndexLvalue) {
  auto result = elaborate_source(R"(
module di (input clk, input [2:0] i, input b, output logic [7:0] q);
  always_ff @(posedge clk) q[i] <= b;
endmodule
)");
  auto& ts = result.ts;
  sim::Assignment env{{ts.lookup("q"), 0x00}, {ts.lookup("i"), 5}, {ts.lookup("b"), 1}};
  EXPECT_EQ(sim::step(ts, env).at(ts.lookup("q")), 0x20u);
}

TEST(Elaborator, ParametersFoldIntoConstants) {
  auto result = elaborate_source(R"(
module p (input clk, output logic [7:0] q);
  localparam STEP = 3;
  localparam TWICE = STEP * 2;
  always_ff @(posedge clk) q <= q + TWICE;
endmodule
)");
  auto& ts = result.ts;
  sim::Assignment env{{ts.lookup("q"), 10}};
  EXPECT_EQ(sim::step(ts, env).at(ts.lookup("q")), 16u);
}

TEST(Elaborator, UnassignedRegisterHolds) {
  auto result = elaborate_source(R"(
module h (input clk, input en, input [3:0] d, output logic [3:0] q);
  always_ff @(posedge clk) begin
    if (en) q <= d;
  end
endmodule
)");
  auto& ts = result.ts;
  sim::Assignment env{{ts.lookup("q"), 7}, {ts.lookup("en"), 0}, {ts.lookup("d"), 1}};
  EXPECT_EQ(sim::step(ts, env).at(ts.lookup("q")), 7u);
}

TEST(Elaborator, Diagnostics) {
  // Combinational cycle.
  EXPECT_THROW(elaborate_source(R"(
module loop (output a, b);
  assign a = b;
  assign b = a;
endmodule
)"),
               ParseError);
  // Inferred latch in always_comb.
  EXPECT_THROW(elaborate_source(R"(
module latch (input c, input d, output logic q);
  always_comb begin
    if (c) q = d;
  end
endmodule
)"),
               ParseError);
  // Multiple drivers.
  EXPECT_THROW(elaborate_source(R"(
module dd (input a, output y);
  assign y = a;
  assign y = !a;
endmodule
)"),
               ParseError);
  // Mixed sequential/combinational driver.
  EXPECT_THROW(elaborate_source(R"(
module mix (input clk, input a, output logic y);
  assign y = a;
  always_ff @(posedge clk) y <= a;
endmodule
)"),
               ParseError);
  // Two clocks.
  EXPECT_THROW(elaborate_source(R"(
module cc (input clk1, clk2, input d, output logic q, r);
  always_ff @(posedge clk1) q <= d;
  always_ff @(posedge clk2) r <= d;
endmodule
)"),
               ParseError);
  // Assignment to an input.
  EXPECT_THROW(elaborate_source(R"(
module ai (input clk, input d, output logic q);
  always_ff @(posedge clk) d <= q;
endmodule
)"),
               ParseError);
  // Use of undeclared signal.
  EXPECT_THROW(elaborate_source(R"(
module ud (input clk, output logic q);
  always_ff @(posedge clk) q <= ghost;
endmodule
)"),
               ParseError);
}

}  // namespace
}  // namespace genfv::hdl
