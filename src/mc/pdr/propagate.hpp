#pragma once

/// \file propagate.hpp
/// Forward clause propagation and the consecution fixpoint behind both
/// graduations: candidate clauses into the frontier level, frontier clauses
/// into F_∞.
///
/// Propagation pushes every blocked clause that remains inductive at its
/// level one level forward; clauses that reach the frontier become
/// candidates for F_∞. All passes record their results through the run's
/// `QueryContext`.

#include "mc/pdr/context.hpp"

namespace genfv::mc::pdr {

enum class PropagateOutcome {
  Done,    ///< every level processed
  Budget,  ///< conflict budget or stop flag interrupted the pass
};

/// Propagation over levels 1..frontier-1.
PropagateOutcome propagate_all(QueryContext& ctx);

/// Graduate unproven candidate clauses into frontier level N: the greatest
/// subset S of `candidates` with F_{N-1} ∧ S ∧ T ⊨ S′ is blocked at N and
/// removed from `candidates` (counted in `graduated`); the rest wait for
/// the next frontier. The caller has already dropped every candidate whose
/// cube contains an initial state, so init ⊨ S as well: by induction over
/// path length every state reachable in ≤ N steps satisfies S, and each
/// survivor is an ordinary level-N clause from then on. Candidates reach
/// the solver nowhere else. Returns false when the budget or stop flag
/// interrupted.
bool graduate_candidates(QueryContext& ctx, std::vector<Cube>& candidates,
                         std::size_t& graduated);

/// Push frontier clauses to F_∞: the same fixpoint over the frontier
/// level, relative to F_∞ ∧ lemmas alone. Survivors satisfy initiation
/// (blocked cubes never intersect init) and consecution as a set, so each
/// is an invariant — provable long before the frame trace itself
/// converges. Returns false when the budget or stop flag interrupted.
bool push_to_infinity(QueryContext& ctx);

}  // namespace genfv::mc::pdr
