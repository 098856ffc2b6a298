#pragma once

/// \file random_sim.hpp
/// Random simulation of transition systems. Three clients:
///  * invariant mining (state sampling for the simulated LLM),
///  * candidate screening (cheaply falsify hallucinated assertions before
///    wasting prover time — the mechanical part of "human-in-the-loop"),
///  * tests (proven properties must survive long random runs).
///
/// Every call compiles the system once into a topologically ordered program
/// over dense slots, one 64-bit word per node, covering the environment
/// constraints, every next function and (for falsify) the watched
/// expression. Operators go through ir::eval_op, so the compiled program and
/// the reference interpreter (sim::evaluate / sim::step) share one source of
/// operator semantics. Random draws happen in a fixed order: per frame, the
/// inputs in ts.inputs() order, redrawn up to 64 times until the constraints
/// hold; per restart, the reset draws of reset_state(). A leaf outside the
/// system, or an init that reads its own state through a chain of inits,
/// throws UsageError.

#include <cstdint>
#include <optional>

#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace genfv::sim {

class RandomSimulator {
 public:
  RandomSimulator(const ir::TransitionSystem& ts, std::uint64_t seed);

  /// Build a reset-state environment: one random value per input (seen only
  /// by the inits), then one per uninitialized register, in ts order. An
  /// init may read inputs and other registers' reset values; it is
  /// evaluated after the inits of the registers it reads.
  Assignment reset_state();

  /// Run `steps` cycles from reset, returning the full trace (frame 0 is the
  /// reset state).
  Trace run(std::size_t steps);

  /// Run from a caller-provided state (inputs are randomized per cycle).
  /// Every state of the system must be bound in `state_values` (UsageError
  /// otherwise); other bindings are ignored.
  Trace run_from(const Assignment& state_values, std::size_t steps);

  /// Try to falsify a width-1 expression: up to `restarts` runs of `steps`
  /// cycles each; returns a witness trace ending at the violating frame. A
  /// run stops at its first violating frame.
  std::optional<Trace> falsify(ir::NodeRef expr, std::size_t steps, std::size_t restarts);

  /// Sample reachable states: `restarts` runs of `steps` cycles; every
  /// visited frame's environment is appended to the result.
  std::vector<Assignment> sample_states(std::size_t steps, std::size_t restarts);

 private:
  const ir::TransitionSystem& ts_;
  util::Xoshiro256 rng_;
};

}  // namespace genfv::sim
