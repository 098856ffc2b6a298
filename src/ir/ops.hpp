#pragma once

/// \file ops.hpp
/// Operator vocabulary of the word-level IR. The IR models synchronous RTL
/// after elaboration: pure bit-vector expressions over inputs and state
/// variables (registers). Bool is represented as BitVec(1).

#include <cstdint>
#include <string_view>

namespace genfv::ir {

enum class Op : std::uint8_t {
  // Leaves
  Const,   ///< literal value (value/width stored on the node)
  Input,   ///< free primary input, fresh every cycle
  State,   ///< register; value constrained by init/next in the system

  // Bitwise (operands and result share one width)
  Not,
  And,
  Or,
  Xor,

  // Arithmetic (modular, operands and result share one width)
  Neg,
  Add,
  Sub,
  Mul,
  Udiv,  ///< division by zero yields all-ones (SMT-LIB convention)
  Urem,  ///< remainder by zero yields the dividend

  // Shifts (shift amount is an arbitrary-width vector, interpreted unsigned)
  Shl,
  Lshr,
  Ashr,

  // Predicates (result width 1)
  Eq,
  Ult,
  Ule,
  Slt,
  Sle,

  // Structure
  Concat,   ///< {hi, lo}: first operand supplies the most-significant bits
  Extract,  ///< bits [hi:lo] (params on the node)
  ZExt,     ///< zero-extend to the node's width
  SExt,     ///< sign-extend to the node's width
  Ite,      ///< if-then-else; condition has width 1

  // Reductions (result width 1)
  RedAnd,
  RedOr,
  RedXor,

  // Boolean sugar over width-1 vectors
  Implies,
};

constexpr std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::Const: return "const";
    case Op::Input: return "input";
    case Op::State: return "state";
    case Op::Not: return "not";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Neg: return "neg";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::Udiv: return "udiv";
    case Op::Urem: return "urem";
    case Op::Shl: return "shl";
    case Op::Lshr: return "lshr";
    case Op::Ashr: return "ashr";
    case Op::Eq: return "eq";
    case Op::Ult: return "ult";
    case Op::Ule: return "ule";
    case Op::Slt: return "slt";
    case Op::Sle: return "sle";
    case Op::Concat: return "concat";
    case Op::Extract: return "extract";
    case Op::ZExt: return "zext";
    case Op::SExt: return "sext";
    case Op::Ite: return "ite";
    case Op::RedAnd: return "redand";
    case Op::RedOr: return "redor";
    case Op::RedXor: return "redxor";
    case Op::Implies: return "implies";
  }
  return "?";
}

constexpr bool is_leaf(Op op) noexcept {
  return op == Op::Const || op == Op::Input || op == Op::State;
}

constexpr bool is_commutative(Op op) noexcept {
  switch (op) {
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Add:
    case Op::Mul:
    case Op::Eq:
      return true;
    default:
      return false;
  }
}

}  // namespace genfv::ir
