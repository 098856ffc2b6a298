#pragma once

/// \file elaborator.hpp
/// Elaboration: Verilog-subset AST -> word-level transition system.
///
/// Model mapping:
///  * input ports (except the clock) -> TS inputs,
///  * signals assigned in sequential always blocks -> TS states,
///  * `assign` / always_comb targets -> named TS signals (inlined exprs),
///  * async reset (from the sensitivity list) or sync reset (a recognized
///    reset-named input guarding the top-level `if`) -> register init values
///    are derived by substituting the active reset level into the next-state
///    function and constant-folding; non-constant results leave the register
///    uninitialized (sound over-approximation),
///  * optionally, a `reset == inactive` environment constraint models the
///    standard formal setup "reset applied before time 0, held inactive
///    during the proof".
///
/// The symbolic executor implements Verilog scheduling: blocking assignments
/// update the evaluation environment immediately; nonblocking assignments
/// evaluate their RHS against the current environment and land in the
/// next-state map; branches merge via if-then-else.

#include <functional>
#include <string>

#include "hdl/ast.hpp"
#include "ir/transition_system.hpp"

namespace genfv::hdl {

struct ElaborationResult {
  ir::TransitionSystem ts;
  std::string clock;   ///< detected clock name ("" for purely combinational)
  std::string reset;   ///< detected reset name ("" = none)
  bool reset_active_low = false;
};

/// Elaborate a parsed module. A detected reset is constrained inactive.
ElaborationResult elaborate(const Module& module);

/// Parse + elaborate in one step.
ElaborationResult elaborate_source(const std::string& verilog);

/// Expression building over the shared HDL/SVA AST. Name resolution and
/// $system-call handling are injected so the HDL elaborator and the SVA
/// compiler share all width/semantics logic.
class ExprBuilder {
 public:
  using Resolver = std::function<ir::NodeRef(const std::string& name, const Expr& at)>;
  using CallHandler = std::function<ir::NodeRef(const Expr& call, ExprBuilder& self)>;

  ExprBuilder(ir::NodeManager& nm, Resolver resolver);
  ExprBuilder(ir::NodeManager& nm, Resolver resolver, CallHandler on_call);

  ir::NodeManager& nm() noexcept { return nm_; }

  /// Build at the expression's natural width.
  ir::NodeRef build(const Expr& e);
  /// Build and coerce to width 1 (Verilog truthiness).
  ir::NodeRef build_bool(const Expr& e);
  /// Build and resize (zero-extend / truncate) to an assignment target width.
  ir::NodeRef build_resized(const Expr& e, unsigned width);

 private:
  ir::NodeRef build_binary(const Expr& e);
  ir::NodeRef build_unary(const Expr& e);
  /// Build both operands of a width-balancing binary operator; unsized
  /// literals adapt to the other operand's width when their value fits.
  std::pair<ir::NodeRef, ir::NodeRef> build_balanced(const Expr& lhs, const Expr& rhs);

  ir::NodeManager& nm_;
  Resolver resolver_;
  CallHandler on_call_;
};

/// Collect every identifier referenced by an expression (for dependency
/// analysis); $call names are not included, their arguments are.
void collect_names(const Expr& e, std::vector<std::string>& out);

}  // namespace genfv::hdl
