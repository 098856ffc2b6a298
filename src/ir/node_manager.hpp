#pragma once

/// \file node_manager.hpp
/// Factory and owner of all IR nodes. Construction performs width checking,
/// operand normalization (commutative operands sorted by id), constant
/// folding and algebraic simplification (fold.cpp), and hash-consing, so
/// structurally equal expressions are pointer-equal.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/node.hpp"

namespace genfv::ir {

class NodeManager {
 public:
  NodeManager() = default;
  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  // --- leaves ---------------------------------------------------------------
  NodeRef mk_const(std::uint64_t value, unsigned width);
  NodeRef mk_true() { return mk_const(1, 1); }
  NodeRef mk_false() { return mk_const(0, 1); }
  NodeRef mk_ones(unsigned width) { return mk_const(width_mask(width), width); }

  /// Inputs and states are nominal: every call creates a distinct node.
  NodeRef mk_input(const std::string& name, unsigned width);
  NodeRef mk_state(const std::string& name, unsigned width);

  // --- bitwise ---------------------------------------------------------------
  NodeRef mk_not(NodeRef a);
  NodeRef mk_and(NodeRef a, NodeRef b);
  NodeRef mk_or(NodeRef a, NodeRef b);
  NodeRef mk_xor(NodeRef a, NodeRef b);
  NodeRef mk_xnor(NodeRef a, NodeRef b) { return mk_not(mk_xor(a, b)); }
  NodeRef mk_nand(NodeRef a, NodeRef b) { return mk_not(mk_and(a, b)); }
  NodeRef mk_nor(NodeRef a, NodeRef b) { return mk_not(mk_or(a, b)); }

  // --- arithmetic -------------------------------------------------------------
  NodeRef mk_neg(NodeRef a);
  NodeRef mk_add(NodeRef a, NodeRef b);
  NodeRef mk_sub(NodeRef a, NodeRef b);
  NodeRef mk_mul(NodeRef a, NodeRef b);
  NodeRef mk_udiv(NodeRef a, NodeRef b);
  NodeRef mk_urem(NodeRef a, NodeRef b);

  // --- shifts ----------------------------------------------------------------
  NodeRef mk_shl(NodeRef a, NodeRef amount);
  NodeRef mk_lshr(NodeRef a, NodeRef amount);
  NodeRef mk_ashr(NodeRef a, NodeRef amount);

  // --- predicates (result width 1) --------------------------------------------
  NodeRef mk_eq(NodeRef a, NodeRef b);
  NodeRef mk_ne(NodeRef a, NodeRef b) { return mk_not(mk_eq(a, b)); }
  NodeRef mk_ult(NodeRef a, NodeRef b);
  NodeRef mk_ule(NodeRef a, NodeRef b);
  NodeRef mk_ugt(NodeRef a, NodeRef b) { return mk_ult(b, a); }
  NodeRef mk_uge(NodeRef a, NodeRef b) { return mk_ule(b, a); }
  NodeRef mk_slt(NodeRef a, NodeRef b);
  NodeRef mk_sle(NodeRef a, NodeRef b);
  NodeRef mk_sgt(NodeRef a, NodeRef b) { return mk_slt(b, a); }
  NodeRef mk_sge(NodeRef a, NodeRef b) { return mk_sle(b, a); }

  // --- structure ---------------------------------------------------------------
  NodeRef mk_concat(NodeRef hi, NodeRef lo);
  NodeRef mk_extract(NodeRef a, unsigned hi, unsigned lo);
  NodeRef mk_bit(NodeRef a, unsigned i) { return mk_extract(a, i, i); }
  NodeRef mk_zext(NodeRef a, unsigned width);
  NodeRef mk_sext(NodeRef a, unsigned width);
  /// Resize `a` to `width`: zero-extend, no-op or truncate.
  NodeRef mk_resize(NodeRef a, unsigned width);
  NodeRef mk_ite(NodeRef cond, NodeRef then_val, NodeRef else_val);

  // --- reductions / boolean -----------------------------------------------------
  NodeRef mk_redand(NodeRef a);
  NodeRef mk_redor(NodeRef a);
  NodeRef mk_redxor(NodeRef a);
  NodeRef mk_implies(NodeRef a, NodeRef b);
  NodeRef mk_iff(NodeRef a, NodeRef b) { return mk_eq(a, b); }
  /// Coerce a vector to a boolean: nonzero test (Verilog truthiness).
  NodeRef mk_bool(NodeRef a) { return a->width() == 1 ? a : mk_redor(a); }

 private:
  friend std::optional<NodeRef> fold(NodeManager& nm, Op op,
                                     const std::vector<NodeRef>& children,
                                     unsigned width, unsigned p0, unsigned p1);

  /// Central constructor: normalize -> fold -> cons -> allocate.
  NodeRef mk(Op op, std::vector<NodeRef> children, unsigned width, unsigned p0 = 0,
             unsigned p1 = 0);
  NodeRef alloc(Op op, std::vector<NodeRef> children, unsigned width, std::uint64_t value,
                unsigned p0, unsigned p1, std::string name);

  struct ConsKey {
    Op op;
    unsigned width;
    std::uint64_t value;
    unsigned p0, p1;
    std::vector<std::uint32_t> child_ids;
    bool operator==(const ConsKey&) const = default;
  };
  struct ConsKeyHash {
    std::size_t operator()(const ConsKey& k) const noexcept;
  };

  std::deque<std::unique_ptr<Node>> nodes_;
  std::unordered_map<ConsKey, NodeRef, ConsKeyHash> cons_;
  std::uint32_t next_id_ = 0;
};

/// Constant folding + algebraic simplification; returns the simplified node
/// or nullopt when no rule applies. Defined in fold.cpp.
std::optional<NodeRef> fold(NodeManager& nm, Op op, const std::vector<NodeRef>& children,
                            unsigned width, unsigned p0, unsigned p1);

/// Bit-precise evaluation of a single operator over uint64 operand values —
/// the single source of truth for operator semantics, shared by the constant
/// folder and the simulator.
std::uint64_t eval_op(Op op, unsigned width, unsigned p0, unsigned p1,
                      std::span<const std::uint64_t> operands,
                      std::span<const unsigned> operand_widths);

}  // namespace genfv::ir
