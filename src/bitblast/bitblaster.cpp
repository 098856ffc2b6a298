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

Lit BitBlaster::gate_and_all(const Bits& xs) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  Lit acc = truth_;
  for (const Lit x : xs) acc = gate_and(acc, x);
  return acc;
}

Lit BitBlaster::gate_or_all(const Bits& xs) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  Lit acc = ~truth_;
  for (const Lit x : xs) acc = gate_or(acc, x);
  return acc;
}

Lit BitBlaster::gate_xor_all(const Bits& xs) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  Lit acc = ~truth_;
  for (const Lit x : xs) acc = gate_xor(acc, x);
  return acc;
}

// --- word-level circuits --------------------------------------------------------

Bits BitBlaster::circuit_add(const Bits& a, const Bits& b, Lit carry_in) {
  GENFV_ASSERT(a.size() == b.size(), "adder: size mismatch");
  Bits sum;
  sum.reserve(a.size());
  Lit carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Lit axb = gate_xor(a[i], b[i]);
    sum.push_back(gate_xor(axb, carry));
    // carry-out = (a & b) | (carry & (a ^ b))
    carry = gate_or(gate_and(a[i], b[i]), gate_and(carry, axb));
  }
  return sum;
}

Bits BitBlaster::circuit_mul(const Bits& a, const Bits& b) {
  const std::size_t w = a.size();
  Bits acc(w, lit_false());
  for (std::size_t i = 0; i < w; ++i) {
    // Partial product: (a << i) & replicate(b[i]), truncated to w bits.
    Bits partial(w, lit_false());
    for (std::size_t j = 0; i + j < w; ++j) {
      partial[i + j] = gate_and(a[j], b[i]);
    }
    acc = circuit_add(acc, partial, lit_false());
  }
  return acc;
}

std::pair<Bits, Bits> BitBlaster::circuit_divmod(const Bits& a, const Bits& b) {
  const std::size_t w = a.size();
  // Work with a (w+1)-bit remainder so `2r + bit` never overflows.
  Bits b_ext = b;
  b_ext.push_back(lit_false());
  Bits r(w + 1, lit_false());
  Bits q(w, lit_false());
  for (std::size_t step = w; step-- > 0;) {
    // r = (r << 1) | a[step]
    Bits shifted;
    shifted.reserve(w + 1);
    shifted.push_back(a[step]);
    for (std::size_t i = 0; i < w; ++i) shifted.push_back(r[i]);
    // geq = shifted >= b_ext  <=>  !(shifted < b_ext)
    const Lit geq = ~circuit_ult(shifted, b_ext);
    // diff = shifted - b_ext
    Bits neg_b;
    neg_b.reserve(w + 1);
    for (const Lit p : b_ext) neg_b.push_back(~p);
    const Bits diff = circuit_add(shifted, neg_b, lit_true());
    for (std::size_t i = 0; i <= w; ++i) r[i] = gate_mux(geq, diff[i], shifted[i]);
    q[step] = geq;
  }
  // SMT-LIB semantics for division by zero.
  const Lit b_zero = ~gate_or_all(b);
  Bits quotient(w, lit_false());
  Bits remainder(w, lit_false());
  for (std::size_t i = 0; i < w; ++i) {
    quotient[i] = gate_mux(b_zero, lit_true(), q[i]);
    remainder[i] = gate_mux(b_zero, a[i], r[i]);
  }
  return {quotient, remainder};
}

Bits BitBlaster::circuit_shift(const Bits& a, const Bits& amount, bool left, Lit fill) {
  const std::size_t w = a.size();
  Bits current = a;
  // Barrel shifter: stage j shifts by 2^j when amount bit j is set.
  for (std::size_t j = 0; j < amount.size() && (1ULL << j) < w; ++j) {
    const std::uint64_t dist = 1ULL << j;
    Bits shifted(w, fill);
    for (std::size_t i = 0; i < w; ++i) {
      if (left) {
        if (i >= dist) shifted[i] = current[i - dist];
      } else {
        if (i + dist < w) shifted[i] = current[i + dist];
      }
    }
    Bits next(w, lit_false());
    for (std::size_t i = 0; i < w; ++i) {
      next[i] = gate_mux(amount[j], shifted[i], current[i]);
    }
    current = next;
  }
  // If any amount bit at or above log2(w) is set, the result saturates to
  // the fill value.
  Bits high_bits;
  for (std::size_t j = 0; j < amount.size(); ++j) {
    if ((1ULL << j) >= w || j >= 63) high_bits.push_back(amount[j]);
  }
  if (!high_bits.empty()) {
    const Lit overshoot = gate_or_all(high_bits);
    for (std::size_t i = 0; i < w; ++i) {
      current[i] = gate_mux(overshoot, fill, current[i]);
    }
  }
  return current;
}

Lit BitBlaster::circuit_ult(const Bits& a, const Bits& b) {
  GENFV_ASSERT(a.size() == b.size(), "ult: size mismatch");
  // LSB-to-MSB fold: at each bit, differing bits decide, else defer lower.
  Lit lt = lit_false();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Lit differ = gate_xor(a[i], b[i]);
    lt = gate_mux(differ, b[i], lt);
  }
  return lt;
}

Lit BitBlaster::circuit_ule(const Bits& a, const Bits& b) { return ~circuit_ult(b, a); }

Lit BitBlaster::circuit_eq(const Bits& a, const Bits& b) {
  GENFV_ASSERT(a.size() == b.size(), "eq: size mismatch");
  Bits iffs;
  iffs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) iffs.push_back(gate_iff(a[i], b[i]));
  return gate_and_all(iffs);
}

// --- expression dispatch ----------------------------------------------------------

const Bits& BitBlaster::blast(ir::NodeRef node, BlastCache& cache) {
  const auto it = cache.find(node);
  if (it != cache.end()) return it->second;

  // Blast children iteratively to bound stack depth on deep expressions.
  std::vector<ir::NodeRef> stack{node};
  while (!stack.empty()) {
    const ir::NodeRef n = stack.back();
    if (cache.contains(n)) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const ir::NodeRef c : n->children()) {
      if (!cache.contains(c)) {
        if (ready) ready = false;
        stack.push_back(c);
      }
    }
    if (!ready) continue;
    stack.pop_back();
    cache.emplace(n, blast_node(n, cache));
  }
  return cache.at(node);
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

Bits BitBlaster::blast_node(ir::NodeRef n, BlastCache& cache) {
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

Bits BitBlaster::blast_uncached(ir::NodeRef n, BlastCache& cache) {
  if (truth_ == sat::kUndefLit) truth_ = solver_.true_lit();
  const unsigned w = n->width();

  auto bits_of = [&cache, this](ir::NodeRef c) -> const Bits& {
    const auto it = cache.find(c);
    GENFV_ASSERT(it != cache.end(), "child not blasted");
    (void)this;
    return it->second;
  };

  switch (n->op()) {
    case ir::Op::Const: {
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) {
        bits.push_back(((n->value() >> i) & 1ULL) != 0 ? truth_ : ~truth_);
      }
      return bits;
    }
    case ir::Op::Input:
    case ir::Op::State:
      throw UsageError("bitblast: leaf '" + n->name() +
                       "' is not bound in the blast cache");

    case ir::Op::Not: {
      Bits bits = bits_of(n->child(0));
      for (auto& b : bits) b = ~b;
      return bits;
    }
    case ir::Op::And:
    case ir::Op::Or:
    case ir::Op::Xor: {
      const Bits& a = bits_of(n->child(0));
      const Bits& b = bits_of(n->child(1));
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) {
        if (n->op() == ir::Op::And) bits.push_back(gate_and(a[i], b[i]));
        else if (n->op() == ir::Op::Or) bits.push_back(gate_or(a[i], b[i]));
        else bits.push_back(gate_xor(a[i], b[i]));
      }
      return bits;
    }

    case ir::Op::Neg: {
      const Bits& a = bits_of(n->child(0));
      Bits nota;
      nota.reserve(w);
      for (const Lit p : a) nota.push_back(~p);
      return circuit_add(nota, Bits(w, ~truth_), truth_);
    }
    case ir::Op::Add:
      return circuit_add(bits_of(n->child(0)), bits_of(n->child(1)), ~truth_);
    case ir::Op::Sub: {
      const Bits& a = bits_of(n->child(0));
      const Bits& b = bits_of(n->child(1));
      Bits notb;
      notb.reserve(w);
      for (const Lit p : b) notb.push_back(~p);
      return circuit_add(a, notb, truth_);
    }
    case ir::Op::Mul:
      return circuit_mul(bits_of(n->child(0)), bits_of(n->child(1)));
    case ir::Op::Udiv:
      return circuit_divmod(bits_of(n->child(0)), bits_of(n->child(1))).first;
    case ir::Op::Urem:
      return circuit_divmod(bits_of(n->child(0)), bits_of(n->child(1))).second;

    case ir::Op::Shl:
      return circuit_shift(bits_of(n->child(0)), bits_of(n->child(1)), /*left=*/true,
                           ~truth_);
    case ir::Op::Lshr:
      return circuit_shift(bits_of(n->child(0)), bits_of(n->child(1)), /*left=*/false,
                           ~truth_);
    case ir::Op::Ashr: {
      const Bits& a = bits_of(n->child(0));
      return circuit_shift(a, bits_of(n->child(1)), /*left=*/false, a.back());
    }

    case ir::Op::Eq:
      return {circuit_eq(bits_of(n->child(0)), bits_of(n->child(1)))};
    case ir::Op::Ult:
      return {circuit_ult(bits_of(n->child(0)), bits_of(n->child(1)))};
    case ir::Op::Ule:
      return {circuit_ule(bits_of(n->child(0)), bits_of(n->child(1)))};
    case ir::Op::Slt:
    case ir::Op::Sle: {
      // Signed comparison == unsigned comparison with MSBs flipped.
      Bits a = bits_of(n->child(0));
      Bits b = bits_of(n->child(1));
      a.back() = ~a.back();
      b.back() = ~b.back();
      if (n->op() == ir::Op::Slt) return {circuit_ult(a, b)};
      return {circuit_ule(a, b)};
    }

    case ir::Op::Concat: {
      // child(0) supplies the MSBs: LSB-first result = lo bits ++ hi bits.
      const Bits& hi = bits_of(n->child(0));
      const Bits& lo = bits_of(n->child(1));
      Bits bits = lo;
      bits.insert(bits.end(), hi.begin(), hi.end());
      return bits;
    }
    case ir::Op::Extract: {
      const Bits& a = bits_of(n->child(0));
      return Bits(a.begin() + n->lo(), a.begin() + n->hi() + 1);
    }
    case ir::Op::ZExt: {
      Bits bits = bits_of(n->child(0));
      bits.resize(w, ~truth_);
      return bits;
    }
    case ir::Op::SExt: {
      Bits bits = bits_of(n->child(0));
      const Lit msb = bits.back();
      bits.resize(w, msb);
      return bits;
    }
    case ir::Op::Ite: {
      const Lit cond = bits_of(n->child(0))[0];
      const Bits& t = bits_of(n->child(1));
      const Bits& e = bits_of(n->child(2));
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) bits.push_back(gate_mux(cond, t[i], e[i]));
      return bits;
    }

    case ir::Op::RedAnd:
      return {gate_and_all(bits_of(n->child(0)))};
    case ir::Op::RedOr:
      return {gate_or_all(bits_of(n->child(0)))};
    case ir::Op::RedXor:
      return {gate_xor_all(bits_of(n->child(0)))};

    case ir::Op::Implies:
      return {gate_or(~bits_of(n->child(0))[0], bits_of(n->child(1))[0])};
  }
  throw UsageError("bitblast: unhandled operator");
}

}  // namespace genfv::bitblast
