/// \file fold.cpp
/// Bit-precise operator evaluation (`eval_op`, shared with the simulator)
/// plus constant folding and algebraic simplification applied at node
/// construction time.

#include <bit>

#include "ir/node_manager.hpp"
#include "util/status.hpp"

namespace genfv::ir {

namespace {

std::int64_t to_signed(std::uint64_t v, unsigned width) {
  if (width == 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign_bit = 1ULL << (width - 1);
  if (v & sign_bit) return static_cast<std::int64_t>(v | ~width_mask(width));
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::uint64_t eval_op(Op op, unsigned width, unsigned p0, unsigned p1,
                      std::span<const std::uint64_t> v, std::span<const unsigned> w) {
  const std::uint64_t mask = width_mask(width);
  switch (op) {
    case Op::Const:
    case Op::Input:
    case Op::State:
      throw UsageError("eval_op called on a leaf");

    case Op::Not: return ~v[0] & mask;
    case Op::And: return v[0] & v[1];
    case Op::Or: return v[0] | v[1];
    case Op::Xor: return v[0] ^ v[1];

    case Op::Neg: return (~v[0] + 1) & mask;
    case Op::Add: return (v[0] + v[1]) & mask;
    case Op::Sub: return (v[0] - v[1]) & mask;
    case Op::Mul: return (v[0] * v[1]) & mask;
    case Op::Udiv: return v[1] == 0 ? mask : (v[0] / v[1]);
    case Op::Urem: return v[1] == 0 ? v[0] : (v[0] % v[1]);

    case Op::Shl: return v[1] >= width ? 0 : (v[0] << v[1]) & mask;
    case Op::Lshr: return v[1] >= width ? 0 : v[0] >> v[1];
    case Op::Ashr: {
      const unsigned opw = w[0];
      const bool sign = (v[0] >> (opw - 1)) & 1ULL;
      if (v[1] >= opw) return sign ? width_mask(opw) : 0;
      std::uint64_t shifted = v[0] >> v[1];
      if (sign) shifted |= width_mask(opw) & ~(width_mask(opw) >> v[1]);
      return shifted & width_mask(opw);
    }

    case Op::Eq: return v[0] == v[1] ? 1 : 0;
    case Op::Ult: return v[0] < v[1] ? 1 : 0;
    case Op::Ule: return v[0] <= v[1] ? 1 : 0;
    case Op::Slt: return to_signed(v[0], w[0]) < to_signed(v[1], w[1]) ? 1 : 0;
    case Op::Sle: return to_signed(v[0], w[0]) <= to_signed(v[1], w[1]) ? 1 : 0;

    case Op::Concat: return ((v[0] << w[1]) | v[1]) & mask;
    case Op::Extract: return (v[0] >> p1) & width_mask(p0 - p1 + 1);
    case Op::ZExt: return v[0];
    case Op::SExt: {
      const unsigned opw = w[0];
      const bool sign = (v[0] >> (opw - 1)) & 1ULL;
      return sign ? (v[0] | (mask & ~width_mask(opw))) : v[0];
    }
    case Op::Ite: return v[0] != 0 ? v[1] : v[2];

    case Op::RedAnd: return v[0] == width_mask(w[0]) ? 1 : 0;
    case Op::RedOr: return v[0] != 0 ? 1 : 0;
    case Op::RedXor: return static_cast<std::uint64_t>(std::popcount(v[0]) & 1);

    case Op::Implies: return (v[0] == 0 || v[1] != 0) ? 1 : 0;
  }
  throw UsageError("eval_op: unhandled operator");
}

std::optional<NodeRef> fold(NodeManager& nm, Op op, const std::vector<NodeRef>& c,
                            unsigned width, unsigned p0, unsigned p1) {
  // 1. Full constant folding when every operand is constant.
  bool all_const = !c.empty();
  for (const NodeRef n : c) {
    if (!n->is_const()) {
      all_const = false;
      break;
    }
  }
  if (all_const) {
    std::vector<std::uint64_t> vals;
    std::vector<unsigned> widths;
    vals.reserve(c.size());
    widths.reserve(c.size());
    for (const NodeRef n : c) {
      vals.push_back(n->value());
      widths.push_back(n->width());
    }
    return nm.mk_const(eval_op(op, width, p0, p1, vals, widths), width);
  }

  // 2. Algebraic rules on partially-constant or structurally special forms.
  switch (op) {
    case Op::Not:
      if (c[0]->op() == Op::Not) return c[0]->child(0);  // ~~x = x
      break;

    case Op::And:
      if (c[0] == c[1]) return c[0];
      if (c[0]->is_zero() || c[1]->is_zero()) return nm.mk_const(0, width);
      if (c[0]->is_ones()) return c[1];
      if (c[1]->is_ones()) return c[0];
      break;

    case Op::Or:
      if (c[0] == c[1]) return c[0];
      if (c[0]->is_ones() || c[1]->is_ones()) return nm.mk_ones(width);
      if (c[0]->is_zero()) return c[1];
      if (c[1]->is_zero()) return c[0];
      break;

    case Op::Xor:
      if (c[0] == c[1]) return nm.mk_const(0, width);
      if (c[0]->is_zero()) return c[1];
      if (c[1]->is_zero()) return c[0];
      if (c[0]->is_ones()) return nm.mk_not(c[1]);
      if (c[1]->is_ones()) return nm.mk_not(c[0]);
      break;

    case Op::Add:
      if (c[0]->is_zero()) return c[1];
      if (c[1]->is_zero()) return c[0];
      break;

    case Op::Sub:
      if (c[1]->is_zero()) return c[0];
      if (c[0] == c[1]) return nm.mk_const(0, width);
      break;

    case Op::Mul:
      if (c[0]->is_zero() || c[1]->is_zero()) return nm.mk_const(0, width);
      if (c[0]->is_const() && c[0]->value() == 1) return c[1];
      if (c[1]->is_const() && c[1]->value() == 1) return c[0];
      break;

    case Op::Shl:
    case Op::Lshr:
    case Op::Ashr:
      if (c[1]->is_zero()) return c[0];
      if (c[0]->is_zero()) return nm.mk_const(0, width);
      break;

    case Op::Eq:
      if (c[0] == c[1]) return nm.mk_true();
      // Boolean equality against constants reduces to the operand / negation.
      if (c[0]->width() == 1) {
        if (c[0]->is_const()) {
          if (c[0]->value() != 0) return c[1];
          return nm.mk_not(c[1]);
        }
        if (c[1]->is_const()) {
          if (c[1]->value() != 0) return c[0];
          return nm.mk_not(c[0]);
        }
      }
      break;

    case Op::Ult:
      if (c[0] == c[1]) return nm.mk_false();
      if (c[1]->is_zero()) return nm.mk_false();  // x < 0 is false (unsigned)
      break;

    case Op::Ule:
      if (c[0] == c[1]) return nm.mk_true();
      if (c[0]->is_zero()) return nm.mk_true();  // 0 <= x
      if (c[1]->is_ones()) return nm.mk_true();  // x <= max
      break;

    case Op::Slt:
      if (c[0] == c[1]) return nm.mk_false();
      break;

    case Op::Sle:
      if (c[0] == c[1]) return nm.mk_true();
      break;

    case Op::Ite:
      if (c[0]->is_const()) return c[0]->value() != 0 ? c[1] : c[2];
      if (c[1] == c[2]) return c[1];
      // ite(c, 1, 0) == c for booleans
      if (width == 1 && c[1]->is_ones() && c[2]->is_zero()) return c[0];
      if (width == 1 && c[1]->is_zero() && c[2]->is_ones()) return nm.mk_not(c[0]);
      break;

    case Op::RedAnd:
      if (c[0]->width() == 1) return c[0];
      break;
    case Op::RedOr:
      if (c[0]->width() == 1) return c[0];
      break;
    case Op::RedXor:
      if (c[0]->width() == 1) return c[0];
      break;

    case Op::Implies:
      if (c[0]->is_zero()) return nm.mk_true();
      if (c[0]->is_ones()) return c[1];
      if (c[1]->is_ones()) return nm.mk_true();
      if (c[1]->is_zero()) return nm.mk_not(c[0]);
      if (c[0] == c[1]) return nm.mk_true();
      break;

    case Op::Extract:
      // extract(extract(x, h2, l2), h1, l1) = extract(x, l2+h1, l2+l1)
      if (c[0]->op() == Op::Extract) {
        return nm.mk_extract(c[0]->child(0), c[0]->lo() + p0, c[0]->lo() + p1);
      }
      break;

    default:
      break;
  }
  return std::nullopt;
}

}  // namespace genfv::ir
