#pragma once

/// \file blocking.hpp
/// Proof-obligation blocking — the heart of the PDR main loop. Given the
/// query context and obligation queue, `strengthen_frontier` enumerates
/// frontier states that violate the property and blocks each backwards-
/// reachable predecessor with a generalized relatively-inductive clause,
/// until the frontier is clean (Blocked), a concrete chain reaches the
/// initial states (Counterexample), or a budget/stop condition fires.
///
/// Obligations are handled lowest level first: pop, then block the cube
/// or extend the chain with its predecessor, and repeat. Once a run has
/// created more than `max_obligations` obligations the phase gives up
/// (Budget); the engine passes kMaxObligations.

#include "mc/pdr/context.hpp"
#include "mc/pdr/obligation.hpp"

namespace genfv::mc::pdr {

/// The engine's obligation cap: a safety valve that turns a runaway
/// obligation chain into Unknown.
inline constexpr std::size_t kMaxObligations = 100000;

enum class BlockOutcome {
  Blocked,          ///< frontier clean: every bad state blocked
  Counterexample,   ///< a chain reached init; see the returned arena index
  Budget,           ///< conflict/obligation budget or the stop flag fired
};

/// Drain the obligation queue. On Counterexample, `*cex_index` is the arena index of the init-state end
/// of the chain.
BlockOutcome handle_obligations(QueryContext& ctx, ObligationQueue& queue,
                                std::size_t max_obligations, std::size_t* cex_index);

/// One full frontier-strengthening phase: enumerate frontier bad states one
/// at a time and fully block (or refute) each before the next query.
BlockOutcome strengthen_frontier(QueryContext& ctx, ObligationQueue& queue,
                                 std::size_t max_obligations, std::size_t frontier,
                                 std::size_t* cex_index);

}  // namespace genfv::mc::pdr
