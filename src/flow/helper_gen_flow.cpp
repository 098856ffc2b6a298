#include "flow/helper_gen_flow.hpp"

#include "genai/prompt.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

HelperGenFlow::HelperGenFlow(genai::LlmClient& llm, FlowOptions options)
    : llm_(llm), options_(std::move(options)) {}

FlowReport HelperGenFlow::run(VerificationTask& task) {
  // One model round trip on specification + RTL + targets; its assertions
  // are the loop's only candidates.
  genai::PromptInputs inputs;
  inputs.design_name = task.name;
  inputs.spec = task.spec;
  inputs.rtl = task.rtl;
  inputs.target_properties = task.target_svas();
  GENFV_TRACE_INSTANT("flow", "mine_start");
  Proposal first = ask_model(llm_, genai::render_helper_generation_prompt(inputs));
  return run_lemma_loop(task, options_, "helper_generation", llm_.model_name(),
                        std::move(first));
}

}  // namespace genfv::flow
