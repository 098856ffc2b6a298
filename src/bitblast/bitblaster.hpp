#pragma once

/// \file bitblaster.hpp
/// Tseitin bit-blasting of word-level IR expressions into a CDCL solver.
///
/// Conventions:
///  * A blasted vector stores literals LSB-first: bits[0] is bit 0.
///  * Leaves (Input/State) must be pre-bound in the per-query cache by the
///    caller (the unroller binds them per time frame); constants map to the
///    solver's constant-true literal and its negation.
///  * The blaster itself is stateless across queries: all memoization lives
///    in the caller-provided cache, so one blaster serves many frames.

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

  /// Blast `node` into literals, memoizing in `cache`. Leaf nodes other than
  /// constants must already be present in `cache`.
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

  sat::Solver& solver_;
  sat::Lit truth_ = sat::kUndefLit;  // cached constant-true literal
};

}  // namespace genfv::bitblast
