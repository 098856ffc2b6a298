#pragma once

/// \file lower.hpp
/// The word-level lowering: how every IR operator becomes and/or/xor/mux
/// gates. It is written once, as templates over a gate builder, and shared
/// by the two back ends that need it:
///  * bitblast::BitBlaster, whose gates are Tseitin-encoded into a CDCL
///    solver (the circuit every proof reasons about), and
///  * the AIGER writer (frontend/aiger.cpp), whose gates are hashed AND
///    nodes of an and-inverter graph.
/// So the exported AIG is, gate for gate, the circuit the engines prove.
///
/// A gate builder `G` supplies, over sat::Lit:
///   lit_true(), lit_false(),
///   gate_and(a, b), gate_or(a, b), gate_xor(a, b), gate_mux(cond, t, e).
/// Templates rather than a virtual interface: the CNF path pays no indirect
/// call per gate.
///
/// Conventions: vectors are LSB-first (bits[0] is bit 0). Where one
/// expression builds two gates, they are built in a fixed, named order:
/// gate order fixes variable numbering, which the committed solver
/// trajectories and AIGER corpus files pin.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/node_manager.hpp"
#include "sat/types.hpp"
#include "util/status.hpp"

namespace genfv::bitblast {

using Bits = std::vector<sat::Lit>;
using BlastCache = std::unordered_map<ir::NodeRef, Bits>;

// --- reductions -------------------------------------------------------------------

template <class G>
sat::Lit and_all(G& g, const Bits& xs) {
  sat::Lit acc = g.lit_true();
  for (const sat::Lit x : xs) acc = g.gate_and(acc, x);
  return acc;
}

template <class G>
sat::Lit or_all(G& g, const Bits& xs) {
  sat::Lit acc = g.lit_false();
  for (const sat::Lit x : xs) acc = g.gate_or(acc, x);
  return acc;
}

template <class G>
sat::Lit xor_all(G& g, const Bits& xs) {
  sat::Lit acc = g.lit_false();
  for (const sat::Lit x : xs) acc = g.gate_xor(acc, x);
  return acc;
}

inline Bits negate(Bits bits) {
  for (sat::Lit& p : bits) p = ~p;
  return bits;
}

// --- word-level circuits -------------------------------------------------------------

/// Ripple-carry adder: a + b + carry_in, truncated to the operand width.
template <class G>
Bits circuit_add(G& g, const Bits& a, const Bits& b, sat::Lit carry_in) {
  GENFV_ASSERT(a.size() == b.size(), "adder: size mismatch");
  Bits sum;
  sum.reserve(a.size());
  sat::Lit carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sat::Lit axb = g.gate_xor(a[i], b[i]);
    sum.push_back(g.gate_xor(axb, carry));
    // carry-out = (a & b) | (carry & (a ^ b))
    const sat::Lit propagated = g.gate_and(carry, axb);
    const sat::Lit generated = g.gate_and(a[i], b[i]);
    carry = g.gate_or(generated, propagated);
  }
  return sum;
}

/// Shift-and-add multiplier, truncated to the operand width.
template <class G>
Bits circuit_mul(G& g, const Bits& a, const Bits& b) {
  const std::size_t w = a.size();
  Bits acc(w, g.lit_false());
  for (std::size_t i = 0; i < w; ++i) {
    // Partial product: (a << i) & replicate(b[i]), truncated to w bits.
    Bits partial(w, g.lit_false());
    for (std::size_t j = 0; i + j < w; ++j) partial[i + j] = g.gate_and(a[j], b[i]);
    acc = circuit_add(g, acc, partial, g.lit_false());
  }
  return acc;
}

/// LSB-to-MSB fold: at each bit, differing bits decide, else defer lower.
template <class G>
sat::Lit circuit_ult(G& g, const Bits& a, const Bits& b) {
  GENFV_ASSERT(a.size() == b.size(), "ult: size mismatch");
  sat::Lit lt = g.lit_false();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sat::Lit differ = g.gate_xor(a[i], b[i]);
    lt = g.gate_mux(differ, b[i], lt);
  }
  return lt;
}

template <class G>
sat::Lit circuit_eq(G& g, const Bits& a, const Bits& b) {
  GENFV_ASSERT(a.size() == b.size(), "eq: size mismatch");
  Bits iffs;
  iffs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) iffs.push_back(~g.gate_xor(a[i], b[i]));
  return and_all(g, iffs);
}

/// Restoring division; returns {quotient, remainder} with the SMT-LIB
/// semantics for division by zero (quotient all ones, remainder = a).
template <class G>
std::pair<Bits, Bits> circuit_divmod(G& g, const Bits& a, const Bits& b) {
  const std::size_t w = a.size();
  // Work with a (w+1)-bit remainder so `2r + bit` never overflows.
  Bits b_ext = b;
  b_ext.push_back(g.lit_false());
  const Bits neg_b = negate(b_ext);
  Bits r(w + 1, g.lit_false());
  Bits q(w, g.lit_false());
  for (std::size_t step = w; step-- > 0;) {
    // r = (r << 1) | a[step]
    Bits shifted;
    shifted.reserve(w + 1);
    shifted.push_back(a[step]);
    for (std::size_t i = 0; i < w; ++i) shifted.push_back(r[i]);
    // geq = shifted >= b_ext  <=>  !(shifted < b_ext); diff = shifted - b_ext
    const sat::Lit geq = ~circuit_ult(g, shifted, b_ext);
    const Bits diff = circuit_add(g, shifted, neg_b, g.lit_true());
    for (std::size_t i = 0; i <= w; ++i) r[i] = g.gate_mux(geq, diff[i], shifted[i]);
    q[step] = geq;
  }
  const sat::Lit b_zero = ~or_all(g, b);
  Bits quotient(w, g.lit_false());
  Bits remainder(w, g.lit_false());
  for (std::size_t i = 0; i < w; ++i) {
    quotient[i] = g.gate_mux(b_zero, g.lit_true(), q[i]);
    remainder[i] = g.gate_mux(b_zero, a[i], r[i]);
  }
  return {quotient, remainder};
}

/// Barrel shifter: stage j shifts by 2^j when amount bit j is set; vacated
/// positions take `fill`. An amount of w or more saturates to all `fill`.
template <class G>
Bits circuit_shift(G& g, const Bits& a, const Bits& amount, bool left, sat::Lit fill) {
  const std::size_t w = a.size();
  Bits current = a;
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
    for (std::size_t i = 0; i < w; ++i) {
      current[i] = g.gate_mux(amount[j], shifted[i], current[i]);
    }
  }
  Bits high_bits;
  for (std::size_t j = 0; j < amount.size(); ++j) {
    if ((1ULL << j) >= w || j >= 63) high_bits.push_back(amount[j]);
  }
  if (!high_bits.empty()) {
    const sat::Lit overshoot = or_all(g, high_bits);
    for (std::size_t i = 0; i < w; ++i) current[i] = g.gate_mux(overshoot, fill, current[i]);
  }
  return current;
}

// --- per-operator lowering -----------------------------------------------------------

/// Lower one node whose children are all in `cache`. Input/State leaves
/// must have been bound by the caller; reaching one here throws.
template <class G>
Bits lower(G& g, ir::NodeRef n, const BlastCache& cache) {
  const unsigned w = n->width();
  auto bits_of = [&cache](ir::NodeRef c) -> const Bits& { return cache.at(c); };

  switch (n->op()) {
    case ir::Op::Const: {
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) {
        bits.push_back(((n->value() >> i) & 1ULL) != 0 ? g.lit_true() : g.lit_false());
      }
      return bits;
    }
    case ir::Op::Input:
    case ir::Op::State:
      throw UsageError("bitblast: leaf '" + n->name() + "' is not bound");

    case ir::Op::Not:
      return negate(bits_of(n->child(0)));
    case ir::Op::And:
    case ir::Op::Or:
    case ir::Op::Xor: {
      const Bits& a = bits_of(n->child(0));
      const Bits& b = bits_of(n->child(1));
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) {
        if (n->op() == ir::Op::And) bits.push_back(g.gate_and(a[i], b[i]));
        else if (n->op() == ir::Op::Or) bits.push_back(g.gate_or(a[i], b[i]));
        else bits.push_back(g.gate_xor(a[i], b[i]));
      }
      return bits;
    }

    case ir::Op::Neg:
      return circuit_add(g, negate(bits_of(n->child(0))), Bits(w, g.lit_false()),
                         g.lit_true());
    case ir::Op::Add:
      return circuit_add(g, bits_of(n->child(0)), bits_of(n->child(1)), g.lit_false());
    case ir::Op::Sub:
      return circuit_add(g, bits_of(n->child(0)), negate(bits_of(n->child(1))),
                         g.lit_true());
    case ir::Op::Mul:
      return circuit_mul(g, bits_of(n->child(0)), bits_of(n->child(1)));
    case ir::Op::Udiv:
      return circuit_divmod(g, bits_of(n->child(0)), bits_of(n->child(1))).first;
    case ir::Op::Urem:
      return circuit_divmod(g, bits_of(n->child(0)), bits_of(n->child(1))).second;

    case ir::Op::Shl:
      return circuit_shift(g, bits_of(n->child(0)), bits_of(n->child(1)), /*left=*/true,
                           g.lit_false());
    case ir::Op::Lshr:
      return circuit_shift(g, bits_of(n->child(0)), bits_of(n->child(1)), /*left=*/false,
                           g.lit_false());
    case ir::Op::Ashr: {
      const Bits& a = bits_of(n->child(0));
      return circuit_shift(g, a, bits_of(n->child(1)), /*left=*/false, a.back());
    }

    case ir::Op::Eq:
      return {circuit_eq(g, bits_of(n->child(0)), bits_of(n->child(1)))};
    case ir::Op::Ult:
      return {circuit_ult(g, bits_of(n->child(0)), bits_of(n->child(1)))};
    case ir::Op::Ule:  // a <= b  <=>  !(b < a)
      return {~circuit_ult(g, bits_of(n->child(1)), bits_of(n->child(0)))};
    case ir::Op::Slt:
    case ir::Op::Sle: {
      // Signed comparison == unsigned comparison with MSBs flipped.
      Bits a = bits_of(n->child(0));
      Bits b = bits_of(n->child(1));
      a.back() = ~a.back();
      b.back() = ~b.back();
      if (n->op() == ir::Op::Slt) return {circuit_ult(g, a, b)};
      return {~circuit_ult(g, b, a)};
    }

    case ir::Op::Concat: {
      // child(0) supplies the MSBs: LSB-first result = lo bits ++ hi bits.
      const Bits& hi = bits_of(n->child(0));
      Bits bits = bits_of(n->child(1));
      bits.insert(bits.end(), hi.begin(), hi.end());
      return bits;
    }
    case ir::Op::Extract: {
      const Bits& a = bits_of(n->child(0));
      return Bits(a.begin() + n->lo(), a.begin() + n->hi() + 1);
    }
    case ir::Op::ZExt: {
      Bits bits = bits_of(n->child(0));
      bits.resize(w, g.lit_false());
      return bits;
    }
    case ir::Op::SExt: {
      Bits bits = bits_of(n->child(0));
      const sat::Lit msb = bits.back();
      bits.resize(w, msb);
      return bits;
    }
    case ir::Op::Ite: {
      const sat::Lit cond = bits_of(n->child(0))[0];
      const Bits& t = bits_of(n->child(1));
      const Bits& e = bits_of(n->child(2));
      Bits bits;
      bits.reserve(w);
      for (unsigned i = 0; i < w; ++i) bits.push_back(g.gate_mux(cond, t[i], e[i]));
      return bits;
    }

    case ir::Op::RedAnd:
      return {and_all(g, bits_of(n->child(0)))};
    case ir::Op::RedOr:
      return {or_all(g, bits_of(n->child(0)))};
    case ir::Op::RedXor:
      return {xor_all(g, bits_of(n->child(0)))};

    case ir::Op::Implies:
      return {g.gate_or(~bits_of(n->child(0))[0], bits_of(n->child(1))[0])};
  }
  throw UsageError("bitblast: unhandled operator");
}

/// Post-order walk of the DAG under `root`: every node not yet in `cache`
/// is entered as `make(node)` once all its children are. Iterative, so deep
/// expressions do not bound the stack. Returns the root's bits.
template <class Make>
const Bits& blast_dag(ir::NodeRef root, BlastCache& cache, Make&& make) {
  if (const auto it = cache.find(root); it != cache.end()) return it->second;
  std::vector<ir::NodeRef> stack{root};
  while (!stack.empty()) {
    const ir::NodeRef n = stack.back();
    if (cache.contains(n)) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const ir::NodeRef c : n->children()) {
      if (!cache.contains(c)) {
        ready = false;
        stack.push_back(c);
      }
    }
    if (!ready) continue;
    stack.pop_back();
    cache.emplace(n, make(n));
  }
  return cache.at(root);
}

}  // namespace genfv::bitblast
