/// Bit-blaster tests. The central property: for any expression DAG and any
/// leaf valuation, the SAT encoding forced to that valuation produces
/// exactly the reference simulator's value — checked over random DAGs
/// (TEST_P sweep) and exhaustively for every operator at small widths. The
/// structural-hashing memo is checked alongside: re-blasting over the same
/// bits must return the same bits and emit nothing.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "bitblast/bitblaster.hpp"
#include "sat/solver.hpp"
#include "sim/interpreter.hpp"
#include "util/rng.hpp"

namespace genfv::bitblast {
namespace {

using ir::NodeRef;

/// Bind a leaf to fresh solver variables and produce assumptions fixing it
/// to `value`.
void bind_leaf(BitBlaster& blaster, BlastCache& cache, NodeRef leaf, std::uint64_t value,
               std::vector<sat::Lit>& assumptions) {
  const Bits bits = blaster.fresh_vector(leaf->width());
  for (unsigned i = 0; i < leaf->width(); ++i) {
    assumptions.push_back(bits[i] ^ !((value >> i) & 1ULL));
  }
  cache.emplace(leaf, bits);
}

/// Blast `expr`, force the given leaf values, solve, and read back the
/// expression's model value. With `reblast`, the expression is blasted a
/// second time through a fresh cache whose leaves are bound to the same
/// bits: the memo must hand back identical bits without a new variable or
/// clause.
std::uint64_t blast_and_eval(NodeRef expr,
                             const std::vector<std::pair<NodeRef, std::uint64_t>>& leaves,
                             bool reblast = false) {
  sat::Solver solver;
  BitBlaster blaster(solver);
  BlastCache cache;
  std::vector<sat::Lit> assumptions;
  for (const auto& [leaf, value] : leaves) {
    bind_leaf(blaster, cache, leaf, value, assumptions);
  }
  const Bits bits = blaster.blast(expr, cache);
  if (reblast) {
    BlastCache second;
    for (const auto& [leaf, value] : leaves) second.emplace(leaf, cache.at(leaf));
    const int vars = solver.num_vars();
    const std::size_t clauses = solver.num_clauses();
    EXPECT_EQ(blaster.blast(expr, second), bits);
    EXPECT_EQ(solver.num_vars(), vars);
    EXPECT_EQ(solver.num_clauses(), clauses);
  }
  EXPECT_EQ(solver.solve(assumptions), sat::LBool::True);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (solver.model_value(bits[i]) == sat::LBool::True) out |= 1ULL << i;
  }
  return out;
}

TEST(BitBlast, ConstantsNeedNoLeaves) {
  ir::NodeManager nm;
  EXPECT_EQ(blast_and_eval(nm.mk_const(0xAB, 8), {}), 0xABu);
  EXPECT_EQ(blast_and_eval(nm.mk_true(), {}), 1u);
}

TEST(BitBlast, UnboundLeafThrows) {
  ir::NodeManager nm;
  const NodeRef x = nm.mk_input("x", 4);
  sat::Solver solver;
  BitBlaster blaster(solver);
  BlastCache cache;
  EXPECT_THROW(blaster.blast(x, cache), UsageError);
}

/// Exhaustive per-operator check at width 3: all 64 operand pairs.
class OpExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(OpExhaustive, MatchesSimulatorOnAllWidth3Pairs) {
  const int op_index = GetParam();
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 3);
  const NodeRef b = nm.mk_input("b", 3);
  const NodeRef exprs[] = {
      nm.mk_add(a, b),  nm.mk_sub(a, b),  nm.mk_mul(a, b),  nm.mk_and(a, b),
      nm.mk_or(a, b),   nm.mk_xor(a, b),  nm.mk_eq(a, b),   nm.mk_ult(a, b),
      nm.mk_ule(a, b),  nm.mk_slt(a, b),  nm.mk_sle(a, b),  nm.mk_shl(a, b),
      nm.mk_lshr(a, b), nm.mk_ashr(a, b), nm.mk_udiv(a, b), nm.mk_urem(a, b),
      nm.mk_concat(a, b),
  };
  const NodeRef expr = exprs[op_index];
  for (std::uint64_t va = 0; va < 8; ++va) {
    for (std::uint64_t vb = 0; vb < 8; ++vb) {
      const sim::Assignment env{{a, va}, {b, vb}};
      const std::uint64_t expected = sim::evaluate(expr, env);
      const std::uint64_t got = blast_and_eval(expr, {{a, va}, {b, vb}});
      ASSERT_EQ(got, expected) << ir::op_name(expr->op()) << " a=" << va << " b=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpExhaustive, ::testing::Range(0, 17));

TEST(BitBlast, UnaryAndStructuralOps) {
  ir::NodeManager nm;
  const NodeRef a = nm.mk_input("a", 5);
  const NodeRef c = nm.mk_input("c", 1);
  for (std::uint64_t va = 0; va < 32; ++va) {
    const sim::Assignment env{{a, va}};
    EXPECT_EQ(blast_and_eval(nm.mk_not(a), {{a, va}}), sim::evaluate(nm.mk_not(a), env));
    EXPECT_EQ(blast_and_eval(nm.mk_neg(a), {{a, va}}), sim::evaluate(nm.mk_neg(a), env));
    EXPECT_EQ(blast_and_eval(nm.mk_redand(a), {{a, va}}),
              sim::evaluate(nm.mk_redand(a), env));
    EXPECT_EQ(blast_and_eval(nm.mk_redor(a), {{a, va}}),
              sim::evaluate(nm.mk_redor(a), env));
    EXPECT_EQ(blast_and_eval(nm.mk_redxor(a), {{a, va}}),
              sim::evaluate(nm.mk_redxor(a), env));
    EXPECT_EQ(blast_and_eval(nm.mk_extract(a, 3, 1), {{a, va}}), (va >> 1) & 0x7);
    EXPECT_EQ(blast_and_eval(nm.mk_zext(a, 9), {{a, va}}), va);
    EXPECT_EQ(blast_and_eval(nm.mk_sext(a, 9), {{a, va}}),
              sim::evaluate(nm.mk_sext(a, 9), env));
  }
  for (std::uint64_t vc = 0; vc < 2; ++vc) {
    const NodeRef ite = nm.mk_ite(c, nm.mk_const(0x15, 5), nm.mk_const(0x0A, 5));
    EXPECT_EQ(blast_and_eval(ite, {{c, vc}}), vc != 0 ? 0x15u : 0x0Au);
  }
}

/// Random DAG generator for the blast-vs-simulate property.
class RandomDag {
 public:
  RandomDag(ir::NodeManager& nm, util::Xoshiro256& rng) : nm_(nm), rng_(rng) {}

  NodeRef leaf(unsigned width, std::vector<NodeRef>& leaves) {
    const NodeRef n = nm_.mk_input("l" + std::to_string(counter_++), width);
    leaves.push_back(n);
    return n;
  }

  NodeRef grow(int depth, unsigned width, std::vector<NodeRef>& leaves) {
    if (depth == 0 || rng_.chance(0.15)) {
      if (rng_.chance(0.25)) return nm_.mk_const(rng_.bits(width), width);
      return leaf(width, leaves);
    }
    switch (rng_.below(14)) {
      case 0: return nm_.mk_add(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 1: return nm_.mk_sub(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 2: return nm_.mk_and(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 3: return nm_.mk_or(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 4: return nm_.mk_xor(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 5: return nm_.mk_not(grow(depth - 1, width, leaves));
      case 6: return nm_.mk_neg(grow(depth - 1, width, leaves));
      case 7: return nm_.mk_ite(grow(depth - 1, 1, leaves), grow(depth - 1, width, leaves),
                                grow(depth - 1, width, leaves));
      case 8: return nm_.mk_mul(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 9: return nm_.mk_shl(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 10: return nm_.mk_lshr(grow(depth - 1, width, leaves), grow(depth - 1, width, leaves));
      case 11: {
        // Predicates re-widened so the recursion stays width-consistent.
        const NodeRef p = nm_.mk_ult(grow(depth - 1, width, leaves),
                                     grow(depth - 1, width, leaves));
        return nm_.mk_zext(p, width);
      }
      case 12: {
        if (width >= 2) {
          const unsigned lo_w = 1 + static_cast<unsigned>(rng_.below(width - 1));
          return nm_.mk_concat(grow(depth - 1, width - lo_w, leaves),
                               grow(depth - 1, lo_w, leaves));
        }
        return grow(depth - 1, width, leaves);
      }
      default: {
        const unsigned wider = width + static_cast<unsigned>(rng_.below(4));
        if (wider <= 64 && wider > width) {
          return nm_.mk_extract(grow(depth - 1, wider, leaves), width - 1, 0);
        }
        return grow(depth - 1, width, leaves);
      }
    }
  }

 private:
  ir::NodeManager& nm_;
  util::Xoshiro256& rng_;
  int counter_ = 0;
};

class BlastVsSimulate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlastVsSimulate, RandomDagsAgreeWithSimulator) {
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 25; ++instance) {
    ir::NodeManager nm;
    RandomDag gen(nm, rng);
    std::vector<NodeRef> leaves;
    const unsigned width = 1 + static_cast<unsigned>(rng.below(16));
    const NodeRef expr = gen.grow(4, width, leaves);

    std::vector<std::pair<NodeRef, std::uint64_t>> bound;
    sim::Assignment env;
    for (const NodeRef leaf : leaves) {
      const std::uint64_t v = rng.bits(leaf->width());
      bound.emplace_back(leaf, v);
      env[leaf] = v;
    }
    const std::uint64_t expected = sim::evaluate(expr, env);
    ASSERT_EQ(blast_and_eval(expr, bound, /*reblast=*/true), expected)
        << "instance " << instance;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlastVsSimulate,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(BlastMemo, BitIdenticalOperandsShareOneEncoding) {
  // x and y are different IR leaves bound to the same bits, so x*z and y*z
  // are different nodes over bit-identical operands.
  ir::NodeManager nm;
  const NodeRef x = nm.mk_input("x", 6);
  const NodeRef y = nm.mk_input("y", 6);
  const NodeRef z = nm.mk_input("z", 6);
  sat::Solver solver;
  BitBlaster blaster(solver);
  BlastCache cache;
  const Bits xbits = blaster.fresh_vector(6);
  cache.emplace(x, xbits);
  cache.emplace(y, xbits);
  cache.emplace(z, blaster.fresh_vector(6));

  const NodeRef xz = nm.mk_mul(x, z);
  const NodeRef yz = nm.mk_mul(y, z);
  ASSERT_NE(xz, yz);
  const Bits first = blaster.blast(xz, cache);
  const int vars = solver.num_vars();
  const std::size_t clauses = solver.num_clauses();
  EXPECT_EQ(blaster.blast(yz, cache), first);
  EXPECT_EQ(solver.num_vars(), vars);
  EXPECT_EQ(solver.num_clauses(), clauses);

  // The memo spans caches: an unrolling's next frame over the same bits
  // hits too, and an equality of the two products folds to constant true.
  BlastCache other{{x, xbits}, {y, xbits}, {z, cache.at(z)}};
  EXPECT_EQ(blaster.blast(xz, other), first);
  EXPECT_EQ(blaster.blast_bit(nm.mk_eq(xz, yz), other), blaster.lit_true());
  EXPECT_EQ(solver.num_vars(), vars);
  EXPECT_EQ(solver.num_clauses(), clauses);

  // Different operand bits miss.
  const NodeRef w = nm.mk_input("w", 6);
  cache.emplace(w, blaster.fresh_vector(6));
  EXPECT_NE(blaster.blast(nm.mk_mul(w, z), cache), first);
  EXPECT_GT(solver.num_clauses(), clauses);
}

TEST(BlastMemo, EliminatedHitIsRebuiltAndStaysCorrect) {
  // x + y's result bits are unfrozen Tseitin outputs used by nothing else,
  // so bounded variable elimination removes them. Blasting the same sum
  // again (through another leaf bound to x's bits) must build fresh bits
  // instead of handing back eliminated ones, without restoring anything.
  ir::NodeManager nm;
  const NodeRef x = nm.mk_input("x", 5);
  const NodeRef x2 = nm.mk_input("x2", 5);
  const NodeRef y = nm.mk_input("y", 5);
  sat::Solver solver;
  BitBlaster blaster(solver);
  BlastCache cache;
  const Bits xbits = blaster.fresh_vector(5);
  const Bits ybits = blaster.fresh_vector(5);
  for (const Bits* leaf : {&xbits, &ybits}) {
    for (const sat::Lit p : *leaf) solver.freeze(sat::var(p));
  }
  cache.emplace(x, xbits);
  cache.emplace(x2, xbits);
  cache.emplace(y, ybits);

  const Bits first = blaster.blast(nm.mk_add(x, y), cache);
  solver.simplify_now();
  bool eliminated = false;
  for (const sat::Lit p : first) eliminated = eliminated || solver.is_eliminated(sat::var(p));
  ASSERT_TRUE(eliminated) << "the scenario needs an eliminated result bit";

  const NodeRef sum = nm.mk_add(x2, y);
  const Bits rebuilt = blaster.blast(sum, cache);
  EXPECT_NE(rebuilt, first);
  for (const sat::Lit p : rebuilt) EXPECT_FALSE(solver.is_eliminated(sat::var(p)));
  EXPECT_EQ(solver.stats().restored_vars, 0u);

  util::Xoshiro256 rng(77);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t vx = rng.bits(5);
    const std::uint64_t vy = rng.bits(5);
    std::vector<sat::Lit> assumptions;
    for (unsigned i = 0; i < 5; ++i) {
      assumptions.push_back(xbits[i] ^ !((vx >> i) & 1ULL));
      assumptions.push_back(ybits[i] ^ !((vy >> i) & 1ULL));
    }
    ASSERT_EQ(solver.solve(assumptions), sat::LBool::True);
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      if (solver.model_value(rebuilt[i]) == sat::LBool::True) got |= 1ULL << i;
    }
    EXPECT_EQ(got, sim::evaluate(sum, {{x2, vx}, {y, vy}})) << vx << " + " << vy;
  }
}

TEST(BitBlast, AssertEqualForcesEquality) {
  ir::NodeManager nm;
  sat::Solver solver;
  BitBlaster blaster(solver);
  const Bits a = blaster.fresh_vector(6);
  const Bits b = blaster.fresh_vector(6);
  blaster.assert_equal(a, b);
  ASSERT_EQ(solver.solve(), sat::LBool::True);
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(solver.model_value(a[i]), solver.model_value(b[i]));
  }
  // Forcing a difference must be UNSAT.
  EXPECT_EQ(solver.solve({a[2], ~b[2]}), sat::LBool::False);
}

TEST(BitBlast, GateHelpersShortCircuitOnConstants) {
  ir::NodeManager nm;
  sat::Solver solver;
  BitBlaster blaster(solver);
  const sat::Lit t = blaster.lit_true();
  const sat::Lit f = blaster.lit_false();
  const sat::Lit x = sat::mk_lit(solver.new_var());
  EXPECT_EQ(blaster.gate_and(t, x), x);
  EXPECT_EQ(blaster.gate_and(f, x), f);
  EXPECT_EQ(blaster.gate_or(t, x), t);
  EXPECT_EQ(blaster.gate_xor(f, x), x);
  EXPECT_EQ(blaster.gate_xor(t, x), ~x);
  EXPECT_EQ(blaster.gate_mux(t, x, f), x);
  EXPECT_EQ(blaster.gate_and(x, x), x);
  EXPECT_EQ(blaster.gate_and(x, ~x), f);
}

}  // namespace
}  // namespace genfv::bitblast
