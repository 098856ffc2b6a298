#pragma once

/// \file cex_repair_flow.hpp
/// Fig. 2 flow: run k-induction on the targets; on an inductive-step
/// failure, render the step counterexample as a waveform, hand RTL + CEX to
/// the LLM, prove whatever it proposes, add proven helpers as assumptions,
/// and retry — the automated version of the paper's "it takes human effort
/// to find the root cause from CEX and write a helper assertion".

#include "flow/helper_gen_flow.hpp"

namespace genfv::flow {

class CexRepairFlow {
 public:
  CexRepairFlow(genai::LlmClient& llm, FlowOptions options = {});

  /// Iterate prove -> CEX -> LLM -> lemma up to kMaxRepairRounds times.
  FlowReport run(VerificationTask& task);

 private:
  genai::LlmClient& llm_;
  FlowOptions options_;
};

}  // namespace genfv::flow
