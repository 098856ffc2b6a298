#include "flow/cex_repair_flow.hpp"

#include "genai/prompt.hpp"
#include "sim/waveform.hpp"
#include "util/strings.hpp"

namespace genfv::flow {

CexRepairFlow::CexRepairFlow(genai::LlmClient& llm, FlowOptions options)
    : llm_(llm), options_(std::move(options)) {}

FlowReport CexRepairFlow::run(VerificationTask& task) {
  // Each round renders the artefacts the paper feeds the LLM: the failing
  // property and the induction-step counterexample as a waveform.
  const auto repair = [&](const mc::EngineResult& failed, const LemmaManager& lemmas) {
    const sim::Trace& cex = *failed.step_cex;
    const std::string waveform = sim::render_waveform(cex, sim::default_signals(task.ts),
                                                      {.failure_frame = cex.size() - 1});
    return ask_model(llm_, genai::render_cex_repair_prompt({
                               .design_name = task.name,
                               .spec = task.spec,
                               .rtl = task.rtl,
                               .target_properties = task.target_svas(),
                               .proven_lemmas = lemmas.lemma_svas(),
                               .failed_property = util::join(task.target_svas(), " && "),
                               .cex_waveform = waveform,
                               .induction_depth = failed.depth,
                           }));
  };
  return run_lemma_loop(task, options_, "cex_repair", llm_.model_name(), std::nullopt,
                        repair);
}

}  // namespace genfv::flow
