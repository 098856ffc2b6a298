#include "ir/node_manager.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace genfv::ir {

namespace {

void require(bool cond, const std::string& msg) {
  if (!cond) throw SortError(msg);
}

void require_same_width(NodeRef a, NodeRef b, const char* what) {
  require(a->width() == b->width(),
          std::string(what) + ": operand widths differ (" + std::to_string(a->width()) +
              " vs " + std::to_string(b->width()) + ")");
}

void require_width(unsigned width) {
  require(width >= 1 && width <= 64,
          "bit-vector width must be in [1,64], got " + std::to_string(width));
}

}  // namespace

std::size_t NodeManager::ConsKeyHash::operator()(const ConsKey& k) const noexcept {
  std::size_t h = static_cast<std::size_t>(k.op) * 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(k.width);
  mix(static_cast<std::size_t>(k.value));
  mix(k.p0);
  mix(k.p1);
  for (const auto id : k.child_ids) mix(id);
  return h;
}

NodeRef NodeManager::alloc(Op op, std::vector<NodeRef> children, unsigned width,
                           std::uint64_t value, unsigned p0, unsigned p1,
                           std::string name) {
  auto node = std::make_unique<Node>(Node{});
  node->op_ = op;
  node->width_ = width;
  node->id_ = next_id_++;
  node->value_ = value;
  node->param0_ = p0;
  node->param1_ = p1;
  node->name_ = std::move(name);
  node->children_ = std::move(children);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

NodeRef NodeManager::mk_const(std::uint64_t value, unsigned width) {
  require_width(width);
  value &= width_mask(width);
  ConsKey key{Op::Const, width, value, 0, 0, {}};
  if (const auto it = cons_.find(key); it != cons_.end()) return it->second;
  const NodeRef n = alloc(Op::Const, {}, width, value, 0, 0, {});
  cons_.emplace(std::move(key), n);
  return n;
}

NodeRef NodeManager::mk_input(const std::string& name, unsigned width) {
  require_width(width);
  return alloc(Op::Input, {}, width, 0, 0, 0, name);  // nominal: never consed
}

NodeRef NodeManager::mk_state(const std::string& name, unsigned width) {
  require_width(width);
  return alloc(Op::State, {}, width, 0, 0, 0, name);  // nominal: never consed
}

NodeRef NodeManager::mk(Op op, std::vector<NodeRef> children, unsigned width, unsigned p0,
                        unsigned p1) {
  require_width(width);
  if (is_commutative(op) && children.size() == 2 && children[0]->id() > children[1]->id()) {
    std::swap(children[0], children[1]);
  }
  if (auto folded = fold(*this, op, children, width, p0, p1)) return *folded;

  ConsKey key{op, width, 0, p0, p1, {}};
  key.child_ids.reserve(children.size());
  for (const NodeRef c : children) key.child_ids.push_back(c->id());
  if (const auto it = cons_.find(key); it != cons_.end()) return it->second;
  const NodeRef n = alloc(op, std::move(children), width, 0, p0, p1, {});
  cons_.emplace(std::move(key), n);
  return n;
}

// --- bitwise -----------------------------------------------------------------

NodeRef NodeManager::mk_not(NodeRef a) { return mk(Op::Not, {a}, a->width()); }

NodeRef NodeManager::mk_and(NodeRef a, NodeRef b) {
  require_same_width(a, b, "and");
  return mk(Op::And, {a, b}, a->width());
}

NodeRef NodeManager::mk_or(NodeRef a, NodeRef b) {
  require_same_width(a, b, "or");
  return mk(Op::Or, {a, b}, a->width());
}

NodeRef NodeManager::mk_xor(NodeRef a, NodeRef b) {
  require_same_width(a, b, "xor");
  return mk(Op::Xor, {a, b}, a->width());
}

// --- arithmetic ----------------------------------------------------------------

NodeRef NodeManager::mk_neg(NodeRef a) { return mk(Op::Neg, {a}, a->width()); }

NodeRef NodeManager::mk_add(NodeRef a, NodeRef b) {
  require_same_width(a, b, "add");
  return mk(Op::Add, {a, b}, a->width());
}

NodeRef NodeManager::mk_sub(NodeRef a, NodeRef b) {
  require_same_width(a, b, "sub");
  return mk(Op::Sub, {a, b}, a->width());
}

NodeRef NodeManager::mk_mul(NodeRef a, NodeRef b) {
  require_same_width(a, b, "mul");
  return mk(Op::Mul, {a, b}, a->width());
}

NodeRef NodeManager::mk_udiv(NodeRef a, NodeRef b) {
  require_same_width(a, b, "udiv");
  return mk(Op::Udiv, {a, b}, a->width());
}

NodeRef NodeManager::mk_urem(NodeRef a, NodeRef b) {
  require_same_width(a, b, "urem");
  return mk(Op::Urem, {a, b}, a->width());
}

// --- shifts ---------------------------------------------------------------------

NodeRef NodeManager::mk_shl(NodeRef a, NodeRef amount) {
  return mk(Op::Shl, {a, amount}, a->width());
}

NodeRef NodeManager::mk_lshr(NodeRef a, NodeRef amount) {
  return mk(Op::Lshr, {a, amount}, a->width());
}

NodeRef NodeManager::mk_ashr(NodeRef a, NodeRef amount) {
  return mk(Op::Ashr, {a, amount}, a->width());
}

// --- predicates -------------------------------------------------------------------

NodeRef NodeManager::mk_eq(NodeRef a, NodeRef b) {
  require_same_width(a, b, "eq");
  return mk(Op::Eq, {a, b}, 1);
}

NodeRef NodeManager::mk_ult(NodeRef a, NodeRef b) {
  require_same_width(a, b, "ult");
  return mk(Op::Ult, {a, b}, 1);
}

NodeRef NodeManager::mk_ule(NodeRef a, NodeRef b) {
  require_same_width(a, b, "ule");
  return mk(Op::Ule, {a, b}, 1);
}

NodeRef NodeManager::mk_slt(NodeRef a, NodeRef b) {
  require_same_width(a, b, "slt");
  return mk(Op::Slt, {a, b}, 1);
}

NodeRef NodeManager::mk_sle(NodeRef a, NodeRef b) {
  require_same_width(a, b, "sle");
  return mk(Op::Sle, {a, b}, 1);
}

// --- structure ----------------------------------------------------------------------

NodeRef NodeManager::mk_concat(NodeRef hi, NodeRef lo) {
  const unsigned width = hi->width() + lo->width();
  require(width <= 64, "concat result exceeds the 64-bit width cap");
  return mk(Op::Concat, {hi, lo}, width);
}

NodeRef NodeManager::mk_extract(NodeRef a, unsigned hi, unsigned lo) {
  require(hi >= lo, "extract: hi must be >= lo");
  require(hi < a->width(), "extract: hi out of range");
  if (lo == 0 && hi == a->width() - 1) return a;
  return mk(Op::Extract, {a}, hi - lo + 1, hi, lo);
}

NodeRef NodeManager::mk_zext(NodeRef a, unsigned width) {
  require(width >= a->width(), "zext: target narrower than operand");
  if (width == a->width()) return a;
  return mk(Op::ZExt, {a}, width);
}

NodeRef NodeManager::mk_sext(NodeRef a, unsigned width) {
  require(width >= a->width(), "sext: target narrower than operand");
  if (width == a->width()) return a;
  return mk(Op::SExt, {a}, width);
}

NodeRef NodeManager::mk_resize(NodeRef a, unsigned width) {
  require_width(width);
  if (width == a->width()) return a;
  if (width > a->width()) return mk_zext(a, width);
  return mk_extract(a, width - 1, 0);
}

NodeRef NodeManager::mk_ite(NodeRef cond, NodeRef then_val, NodeRef else_val) {
  require(cond->width() == 1, "ite: condition must have width 1");
  require_same_width(then_val, else_val, "ite");
  return mk(Op::Ite, {cond, then_val, else_val}, then_val->width());
}

// --- reductions / boolean --------------------------------------------------------------

NodeRef NodeManager::mk_redand(NodeRef a) { return mk(Op::RedAnd, {a}, 1); }
NodeRef NodeManager::mk_redor(NodeRef a) { return mk(Op::RedOr, {a}, 1); }
NodeRef NodeManager::mk_redxor(NodeRef a) { return mk(Op::RedXor, {a}, 1); }

NodeRef NodeManager::mk_implies(NodeRef a, NodeRef b) {
  require(a->width() == 1 && b->width() == 1, "implies: operands must have width 1");
  return mk(Op::Implies, {a, b}, 1);
}

}  // namespace genfv::ir
