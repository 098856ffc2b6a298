#pragma once

/// \file cube.hpp
/// Cubes over state bits — the currency of IC3/PDR. A cube is a conjunction
/// of literals, each naming one bit of one state variable; the clause learnt
/// from a blocked cube is its negation. Cubes are kept sorted by
/// (state, bit), which makes subsumption a linear merge.

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/transition_system.hpp"

namespace genfv::mc::pdr {

/// One literal: bit `bit` of `ts.states()[state]`; `negated` means the cube
/// requires the bit to be 0.
struct StateLit {
  std::uint32_t state = 0;
  std::uint32_t bit = 0;
  bool negated = false;

  friend bool operator==(const StateLit&, const StateLit&) = default;
};

inline bool operator<(const StateLit& a, const StateLit& b) noexcept {
  if (a.state != b.state) return a.state < b.state;
  if (a.bit != b.bit) return a.bit < b.bit;
  return static_cast<int>(a.negated) < static_cast<int>(b.negated);
}

/// Conjunction of state-bit literals, sorted by (state, bit).
using Cube = std::vector<StateLit>;

/// Sort + deduplicate into the canonical form the other helpers expect.
void canonicalize(Cube& cube);

/// Canonicalize a cube that came from a *clause* (a candidate lemma) and
/// vet it: returns false for an empty cube or one carrying both polarities
/// of a bit — such a clause is a tautology and must be rejected, not
/// approximated. The single gatekeeper for every candidate intake path, so
/// the policy cannot diverge between them.
bool canonicalize_clause_cube(Cube& cube);

/// True iff every literal of `a` appears in `b` — i.e. `a` is weaker as a
/// cube (covers more states), so the clause ¬a subsumes the clause ¬b.
bool subsumes(const Cube& a, const Cube& b);

/// The blocking clause ¬cube as a width-1 IR expression over the system's
/// state variables, suitable for lemma export / SVA printing. Creates nodes
/// in `ts`'s NodeManager — call only from the thread that owns the system.
ir::NodeRef clause_expr(const ir::TransitionSystem& ts, const Cube& cube);

/// Best-effort inverse of `clause_expr`: recognize a width-1 expression that
/// is a disjunction of (possibly negated) single state-bit literals of `ts`
/// and return the cube it blocks, canonicalized. Returns nullopt when the
/// expression is not clause-shaped (references inputs/signals, uses
/// non-clause operators, or is a tautology) — candidate seeding skips such
/// lemmas rather than approximating them.
std::optional<Cube> cube_of_clause(const ir::TransitionSystem& ts, ir::NodeRef expr);

}  // namespace genfv::mc::pdr
