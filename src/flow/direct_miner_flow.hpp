#pragma once

/// \file direct_miner_flow.hpp
/// The non-LLM comparator: runs the invariant-mining analyses directly
/// against the design (no prompt rendering, no text channel, no noise
/// injection, no per-model insight limits) and pushes every proposal
/// through the same lemma loop as the paper's flows.
///
/// This is what a classical invariant-generation tool would do; benches use
/// it to separate "value of the invariants" from "value of the LLM
/// packaging" — and it doubles as an upper bound on what any simulated
/// model profile can achieve.

#include "flow/lemma_loop.hpp"

namespace genfv::flow {

class DirectMinerFlow {
 public:
  /// `options` are read exactly as the LLM flows read them; `seed` drives
  /// the random-simulation sampling the miners work from.
  explicit DirectMinerFlow(FlowOptions options = {}, std::uint64_t seed = 0xD15EA5E);

  FlowReport run(VerificationTask& task);

 private:
  FlowOptions options_;
  std::uint64_t seed_;
};

}  // namespace genfv::flow
