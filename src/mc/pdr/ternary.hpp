#pragma once

/// \file ternary.hpp
/// Three-valued (0/1/X) simulation over the word-level IR, and the classic
/// IC3 cube-lifting pass built on it.
///
/// A failed PDR query hands back a *full-width* state assignment: every bit
/// of every register, even though only a handful force the bad successor.
/// Blocking full cubes makes the frame clauses maximally weak — each clause
/// excludes exactly one state. Ternary lifting shrinks the cube before
/// generalization ever sees it: replace a state bit with X, re-simulate with
/// X-propagation, and drop the bit whenever the outcome the cube exists to
/// certify (the successor cube under the recorded inputs, or the property
/// violation itself) is still *forced* — true for every concretization of
/// the X bits. One lifted cube can stand in for exponentially many states,
/// which shrinks the obligation stream and strengthens every learnt clause.
///
/// Soundness contract of `TernaryWord`: a bit reported known must have that
/// value under **every** concretization of the X inputs. The evaluator is
/// deliberately conservative — imprecision (reporting X where a value is in
/// fact forced) only costs lifted bits, never correctness. Environment
/// constraints are part of every lifting goal: a lifted cube may only cover
/// states that still satisfy the system's constraints under the recorded
/// inputs, because counterexample chains are rebuilt by re-simulation
/// through those cubes (see `docs/lemmas.md`).
///
/// `TernarySim` is per-run state (the `QueryContext` owns one over the run's
/// system); it is not internally synchronized and never touches a solver.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mc/pdr/cube.hpp"
#include "mc/pdr/obligation.hpp"

namespace genfv::mc::pdr {

/// One three-valued word of up to 64 bits. Bit i is X iff `known` bit i is
/// 0; where known, the bit's value lives in `value`. Invariant: unknown and
/// above-width positions of `value` are 0, above-width positions of `known`
/// are 0.
struct TernaryWord {
  std::uint64_t value = 0;
  std::uint64_t known = 0;

  static TernaryWord constant(std::uint64_t v, unsigned width) {
    return {v & ir::width_mask(width), ir::width_mask(width)};
  }
  static TernaryWord unknown(unsigned width) {
    (void)width;
    return {0, 0};
  }

  bool fully_known(unsigned width) const noexcept {
    return (known & ir::width_mask(width)) == ir::width_mask(width);
  }
  /// Bit `i` is known with value `v`.
  bool is(unsigned i, bool v) const noexcept {
    return ((known >> i) & 1) != 0 && (((value >> i) & 1) != 0) == v;
  }

  friend bool operator==(const TernaryWord&, const TernaryWord&) = default;
};

/// X-propagating evaluation of a single operator — the three-valued
/// counterpart of `ir::eval_op` (which it defers to when every operand is
/// fully known). Exposed for unit testing.
TernaryWord ternary_op(ir::Op op, unsigned width, unsigned p0, unsigned p1,
                       const std::vector<TernaryWord>& operands,
                       const std::vector<unsigned>& operand_widths);

/// Three-valued simulator over one transition system. Holds a leaf
/// environment (state/input words, any of whose bits may be X) and
/// evaluates expressions over it with memoization; mutating the environment
/// invalidates the memo.
class TernarySim {
 public:
  /// `ts` must outlive the simulator. Expressions passed to `evaluate` must
  /// live in `ts`'s NodeManager.
  explicit TernarySim(const ir::TransitionSystem& ts);

  /// Bind every state/input leaf to the fully-known packed values of an
  /// extracted obligation (same order as ts.states() / ts.inputs()).
  void load(const std::vector<std::uint64_t>& state_values,
            const std::vector<std::uint64_t>& input_values);

  /// Make bit `bit` of state `state` unknown / concrete again.
  void set_state_bit_unknown(std::uint32_t state, std::uint32_t bit);
  void set_state_bit(std::uint32_t state, std::uint32_t bit, bool value);

  /// Make bit `bit` of input `input` unknown / concrete again.
  void set_input_bit_unknown(std::uint32_t input, std::uint32_t bit);
  void set_input_bit(std::uint32_t input, std::uint32_t bit, bool value);

  TernaryWord state_word(std::uint32_t state) const;

  /// Evaluate `root` under the current environment. Every Input/State leaf
  /// reachable from `root` must be bound.
  TernaryWord evaluate(ir::NodeRef root);

 private:
  const ir::TransitionSystem& ts_;
  std::unordered_map<ir::NodeRef, TernaryWord> env_;
  std::unordered_map<ir::NodeRef, TernaryWord> memo_;  ///< cleared on env edits
};

/// Ternary-lift an extracted obligation in place: drop cube literals whose
/// X-valuation still forces the lifting goal under the obligation's concrete
/// input values. Two goal shapes:
///  * `successor != nullptr` — predecessor lifting: every literal of the
///    successor cube must stay forced through the next-state functions (all
///    states in the lifted cube step into the successor cube under these
///    inputs);
///  * `successor == nullptr` — frontier bad-state lifting: `property` must
///    stay forced to 0 (all states in the lifted cube violate it under
///    these inputs).
/// Every environment constraint must additionally stay forced to 1 in both
/// shapes. `o.state_values` keeps the concrete witness; only `o.cube`
/// shrinks (never to empty). Returns the number of literals dropped.
///
/// After the state pass, an *input* pass re-runs the same probe over the
/// recorded input bits: each bit that can go X with the goal still forced is
/// provably irrelevant to this transition. The count lands in
/// `*lifted_inputs` (when non-null). `o.input_values` stays fully concrete —
/// counterexample chains are rebuilt by re-simulating through the recorded
/// inputs, so the witness must survive lifting — which is also why the input
/// pass must run after the state pass: forcing is monotone in the X set, and
/// X-ing inputs first would only mask state bits the cube genuinely needs.
std::size_t lift_obligation(TernarySim& sim, const ir::TransitionSystem& ts,
                            Obligation& o, const Cube* successor,
                            ir::NodeRef property,
                            std::size_t* lifted_inputs = nullptr);

}  // namespace genfv::mc::pdr
