#pragma once

/// \file generalize.hpp
/// Inductive generalization: shrink a relatively-inductive cube so the
/// learnt clause ¬cube blocks as many states as possible. Unsat-core filter
/// first, then initiation repair, then MIC-style greedy literal dropping. All SAT work runs in the run's `QueryContext`; the
/// result is a manager-neutral cube ready for `FrameDb::add_blocked`.

#include <vector>

#include "mc/pdr/context.hpp"
#include "mc/pdr/cube.hpp"

namespace genfv::mc::pdr {

/// Shrink a relatively-inductive `cube` at `level`: keep the literals named
/// by `core` (the failed assumptions of the blocking query), repair
/// initiation, then greedily drop further literals while the cube stays
/// disjoint from init and relatively inductive.
Cube generalize(QueryContext& ctx, const Cube& cube, std::size_t level,
                const std::vector<sat::Lit>& core);

/// Re-add literals of `full` until `g` no longer intersects the initial
/// states. `full` itself is known disjoint from init, so this terminates.
void repair_initiation(QueryContext& ctx, Cube& g, const Cube& full);

}  // namespace genfv::mc::pdr
