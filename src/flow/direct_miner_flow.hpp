#pragma once

/// \file direct_miner_flow.hpp
/// The non-LLM comparator: runs the invariant-mining analyses directly
/// against the design (no prompt rendering, no text channel, no noise
/// injection, no per-model insight limits) and pushes every proposal
/// through the same review gate and lemma lifecycle as the paper's flows.
///
/// This is what a classical invariant-generation tool would do; benches use
/// it to separate "value of the invariants" from "value of the LLM
/// packaging" — and it doubles as an upper bound on what any simulated
/// model profile can achieve.

#include "flow/helper_gen_flow.hpp"

namespace genfv::flow {

struct DirectMinerOptions {
  /// Proof bounds, review policy, joint induction and the target-proof
  /// engine, read exactly as the LLM flows read them; the prompt/iteration
  /// fields are unused.
  FlowOptions flow;
  /// Random-simulation sampling for the miners.
  std::size_t sample_steps = 48;
  std::size_t sample_restarts = 6;
  std::uint64_t seed = 0xD15EA5E;
};

class DirectMinerFlow {
 public:
  explicit DirectMinerFlow(DirectMinerOptions options = {});

  FlowReport run(VerificationTask& task);

 private:
  DirectMinerOptions options_;
};

}  // namespace genfv::flow
