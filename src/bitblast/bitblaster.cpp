#include "bitblast/bitblaster.hpp"

#include "util/status.hpp"

namespace genfv::bitblast {

using sat::Lit;

Bits BitBlaster::fresh_vector(unsigned width) {
  Bits bits;
  bits.reserve(width);
  for (unsigned i = 0; i < width; ++i) bits.push_back(sat::mk_lit(solver_.new_var()));
  return bits;
}

void BitBlaster::assert_equal(const Bits& a, const Bits& b) {
  GENFV_ASSERT(a.size() == b.size(), "assert_equal: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    solver_.add_clause(~a[i], b[i]);
    solver_.add_clause(a[i], ~b[i]);
  }
}

Lit BitBlaster::gate_and(Lit a, Lit b) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  if (is_const(a, false) || is_const(b, false)) return ~truth_;
  if (is_const(a, true)) return b;
  if (is_const(b, true)) return a;
  if (a == b) return a;
  if (a == ~b) return ~truth_;
  const Lit o = sat::mk_lit(solver_.new_var(/*decision=*/true));
  solver_.add_clause(~a, ~b, o);
  solver_.add_clause(a, ~o);
  solver_.add_clause(b, ~o);
  return o;
}

Lit BitBlaster::gate_or(Lit a, Lit b) { return ~gate_and(~a, ~b); }

Lit BitBlaster::gate_xor(Lit a, Lit b) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  if (is_const(a, false)) return b;
  if (is_const(b, false)) return a;
  if (is_const(a, true)) return ~b;
  if (is_const(b, true)) return ~a;
  if (a == b) return ~truth_;
  if (a == ~b) return truth_;
  const Lit o = sat::mk_lit(solver_.new_var(/*decision=*/true));
  solver_.add_clause(~a, ~b, ~o);
  solver_.add_clause(a, b, ~o);
  solver_.add_clause(~a, b, o);
  solver_.add_clause(a, ~b, o);
  return o;
}

Lit BitBlaster::gate_mux(Lit cond, Lit t, Lit e) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  if (is_const(cond, true)) return t;
  if (is_const(cond, false)) return e;
  if (t == e) return t;
  const Lit o = sat::mk_lit(solver_.new_var(/*decision=*/true));
  solver_.add_clause(~cond, ~t, o);
  solver_.add_clause(~cond, t, ~o);
  solver_.add_clause(cond, ~e, o);
  solver_.add_clause(cond, e, ~o);
  return o;
}

// --- expression dispatch ----------------------------------------------------------

const Bits& BitBlaster::blast(ir::NodeRef node, BlastCache& cache) {
  return blast_dag(node, cache, [&](ir::NodeRef n) { return blast_node(n, cache); });
}

std::size_t BitBlaster::MemoKeyHash::operator()(const MemoKey& key) const noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const std::int32_t x : key) {
    h ^= static_cast<std::uint32_t>(x);
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

Bits BitBlaster::blast_node(ir::NodeRef n, const BlastCache& cache) {
  switch (n->op()) {
    case ir::Op::Const:
    case ir::Op::Input:
    case ir::Op::State:
    case ir::Op::Not:
    case ir::Op::Concat:
    case ir::Op::Extract:
    case ir::Op::ZExt:
    case ir::Op::SExt:
      return blast_uncached(n, cache);  // no clauses to share
    default:
      break;
  }
  MemoKey key{static_cast<std::int32_t>(n->op()), static_cast<std::int32_t>(n->width())};
  for (const ir::NodeRef c : n->children()) {
    const Bits& bits = cache.at(c);
    key.push_back(static_cast<std::int32_t>(bits.size()));
    for (const Lit p : bits) key.push_back(p.code);
  }
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    bool live = true;
    for (const Lit p : it->second) live = live && !solver_.is_eliminated(sat::var(p));
    if (live) return it->second;
  }
  Bits bits = blast_uncached(n, cache);
  memo_.insert_or_assign(std::move(key), bits);
  return bits;
}

sat::Lit BitBlaster::blast_bit(ir::NodeRef node, BlastCache& cache) {
  GENFV_ASSERT(node->width() == 1, "blast_bit requires a width-1 node");
  return blast(node, cache)[0];
}

Bits BitBlaster::blast_uncached(ir::NodeRef n, const BlastCache& cache) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  return lower(*this, n, cache);
}

}  // namespace genfv::bitblast
