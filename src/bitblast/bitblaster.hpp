#pragma once

/// \file bitblaster.hpp
/// Tseitin bit-blasting of word-level IR expressions into a CDCL solver.
///
/// Conventions:
///  * A blasted vector stores literals LSB-first: bits[0] is bit 0.
///  * Leaves (Input/State) must be pre-bound in the per-query cache by the
///    caller (the unroller binds them per time frame); constants map to the
///    solver's constant-true literal and its negation.
///  * Two levels of memoization. The caller-provided cache maps IR nodes to
///    bits per query (the unroller keeps one per time frame). Under it, the
///    blaster keeps one word-level structural-hashing memo for its solver,
///    keyed by (operator, width, operand bits): an operator whose operands
///    are bit-for-bit those of an earlier one returns the earlier result and
///    emits no clause. Identical logic in different frames, or two copies of
///    one datapath fed the same bits, thus share one encoding. Leaves,
///    constants and the pure-wiring operators (Not, Concat, Extract, ZExt,
///    SExt) emit no clauses and are not memoized. A hit whose result bits
///    inprocessing has eliminated is rebuilt as a miss, so re-using a memo
///    entry never triggers restore-on-import.
///  * Individual gates are deliberately not hashed, and level-0 facts are
///    not folded (docs/architecture.md explains why).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/node_manager.hpp"
#include "sat/solver.hpp"

namespace genfv::bitblast {

using Bits = std::vector<sat::Lit>;
using BlastCache = std::unordered_map<ir::NodeRef, Bits>;

class BitBlaster {
 public:
  explicit BitBlaster(sat::Solver& solver) : solver_(solver) {}

  sat::Solver& solver() noexcept { return solver_; }

  /// Blast `node` into literals, memoizing in `cache` (and in the blaster's
  /// structural-hashing memo). Leaf nodes other than constants must already
  /// be present in `cache`.
  const Bits& blast(ir::NodeRef node, BlastCache& cache);

  /// Single literal for a width-1 expression.
  sat::Lit blast_bit(ir::NodeRef node, BlastCache& cache);

  /// Fresh unconstrained vector of `width` solver variables.
  Bits fresh_vector(unsigned width);

  /// Assert bit-wise equality of two same-size vectors.
  void assert_equal(const Bits& a, const Bits& b);

  /// Constant-true literal of the underlying solver.
  sat::Lit lit_true() { return solver_.true_lit(); }
  sat::Lit lit_false() { return ~solver_.true_lit(); }

  // --- gate-level helpers (exposed for the unroller's glue logic) -----------
  sat::Lit gate_and(sat::Lit a, sat::Lit b);
  sat::Lit gate_or(sat::Lit a, sat::Lit b);
  sat::Lit gate_xor(sat::Lit a, sat::Lit b);
  sat::Lit gate_iff(sat::Lit a, sat::Lit b) { return ~gate_xor(a, b); }
  /// mux: cond ? t : e
  sat::Lit gate_mux(sat::Lit cond, sat::Lit t, sat::Lit e);
  sat::Lit gate_and_all(const Bits& xs);
  sat::Lit gate_or_all(const Bits& xs);
  sat::Lit gate_xor_all(const Bits& xs);

 private:
  /// One node whose children are all in `cache`: a memo hit, or a fresh
  /// encoding recorded in the memo.
  Bits blast_node(ir::NodeRef node, BlastCache& cache);
  Bits blast_uncached(ir::NodeRef node, BlastCache& cache);

  // --- word-level circuit constructions ---------------------------------------
  Bits circuit_add(const Bits& a, const Bits& b, sat::Lit carry_in);
  Bits circuit_mul(const Bits& a, const Bits& b);
  /// Restoring division; returns {quotient, remainder}.
  std::pair<Bits, Bits> circuit_divmod(const Bits& a, const Bits& b);
  Bits circuit_shift(const Bits& a, const Bits& amount, bool left, sat::Lit fill);
  sat::Lit circuit_ult(const Bits& a, const Bits& b);
  sat::Lit circuit_ule(const Bits& a, const Bits& b);
  sat::Lit circuit_eq(const Bits& a, const Bits& b);

  bool is_const(sat::Lit p, bool value) const {
    // Recognize the canonical constant literals only (sufficient: all
    // constants funnel through lit_true()).
    return value ? p == truth_ : p == ~truth_;
  }

  /// Memo key: operator, width, then each operand's size and literal codes.
  using MemoKey = std::vector<std::int32_t>;
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& key) const noexcept;
  };

  sat::Solver& solver_;
  sat::Lit truth_ = sat::kUndefLit;  // cached constant-true literal
  std::unordered_map<MemoKey, Bits, MemoKeyHash> memo_;
};

}  // namespace genfv::bitblast
