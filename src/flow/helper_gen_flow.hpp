#pragma once

/// \file helper_gen_flow.hpp
/// Fig. 1 flow: specification + RTL -> LLM -> helper assertions -> formal
/// proof -> proven helpers become assumptions -> targets proven with them.

#include "flow/lemma_loop.hpp"

namespace genfv::flow {

class HelperGenFlow {
 public:
  HelperGenFlow(genai::LlmClient& llm, FlowOptions options = {});

  /// Run the one-shot Fig. 1 pipeline on `task`.
  FlowReport run(VerificationTask& task);

 private:
  genai::LlmClient& llm_;
  FlowOptions options_;
};

}  // namespace genfv::flow
