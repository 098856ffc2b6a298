#include "mc/pdr/cube.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace genfv::mc::pdr {

void canonicalize(Cube& cube) {
  std::sort(cube.begin(), cube.end());
  cube.erase(std::unique(cube.begin(), cube.end()), cube.end());
}

bool canonicalize_clause_cube(Cube& cube) {
  if (cube.empty()) return false;
  canonicalize(cube);
  for (std::size_t i = 1; i < cube.size(); ++i) {
    if (cube[i - 1].state == cube[i].state && cube[i - 1].bit == cube[i].bit) {
      return false;  // both polarities of one bit: tautological clause
    }
  }
  return true;
}

bool subsumes(const Cube& a, const Cube& b) {
  if (a.size() > b.size()) return false;
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

ir::NodeRef clause_expr(const ir::TransitionSystem& ts, const Cube& cube) {
  GENFV_ASSERT(!cube.empty(), "cannot render the empty clause");
  auto nm = ts.nm_ptr();
  ir::NodeRef clause = nm->mk_false();
  for (const StateLit& lit : cube) {
    const ir::NodeRef var = ts.states().at(lit.state).var;
    ir::NodeRef bit = nm->mk_bit(var, lit.bit);
    // The clause literal is the negation of the cube literal.
    clause = nm->mk_or(clause, lit.negated ? bit : nm->mk_not(bit));
  }
  return clause;
}

namespace {

/// Recognize `expr` as one bit of one state variable of `ts`: either
/// Extract(var, i, i) or a width-1 state variable itself (mk_bit folds the
/// full-range extract away). Fills `out` (polarity left to the caller).
bool state_bit_of(const ir::TransitionSystem& ts, ir::NodeRef expr, StateLit* out) {
  ir::NodeRef var = nullptr;
  std::uint32_t bit = 0;
  if (expr->op() == ir::Op::State) {
    if (expr->width() != 1) return false;
    var = expr;
  } else if (expr->op() == ir::Op::Extract && expr->hi() == expr->lo() &&
             expr->child(0)->op() == ir::Op::State) {
    var = expr->child(0);
    bit = expr->hi();
  } else {
    return false;
  }
  for (std::size_t i = 0; i < ts.states().size(); ++i) {
    if (ts.states()[i].var == var) {
      out->state = static_cast<std::uint32_t>(i);
      out->bit = bit;
      return true;
    }
  }
  return false;  // a state node, but not one of this system's
}

}  // namespace

std::optional<Cube> cube_of_clause(const ir::TransitionSystem& ts, ir::NodeRef expr) {
  if (expr == nullptr || expr->width() != 1) return std::nullopt;
  Cube cube;
  std::vector<ir::NodeRef> stack{expr};
  while (!stack.empty()) {
    const ir::NodeRef n = stack.back();
    stack.pop_back();
    if (n->op() == ir::Op::Or && n->width() == 1) {
      stack.push_back(n->child(0));
      stack.push_back(n->child(1));
      continue;
    }
    if (n->is_const()) {
      if (n->value() != 0) return std::nullopt;  // trivially true clause
      continue;                                  // Or identity
    }
    StateLit lit;
    if (n->op() == ir::Op::Not && state_bit_of(ts, n->child(0), &lit)) {
      lit.negated = false;  // clause literal ¬bit blocks cube bit == 1
    } else if (state_bit_of(ts, n, &lit)) {
      lit.negated = true;  // clause literal bit blocks cube bit == 0
    } else {
      return std::nullopt;
    }
    cube.push_back(lit);
  }
  if (!canonicalize_clause_cube(cube)) return std::nullopt;
  return cube;
}

}  // namespace genfv::mc::pdr
