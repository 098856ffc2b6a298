#include "flow/helper_gen_flow.hpp"

#include "genai/prompt.hpp"
#include "genai/response_parser.hpp"
#include "ir/printer.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

mc::EngineOptions target_engine_options(const FlowOptions& options,
                                        const LemmaManager& lemmas) {
  mc::EngineOptions out = mc::to_engine_options(options.engine);
  out.lemmas.insert(out.lemmas.end(), lemmas.lemma_exprs().begin(),
                    lemmas.lemma_exprs().end());
  out.pdr_seed_candidates = options.pdr_seed_candidates;
  if (options.pdr_seed_candidates) {
    // Rejected-but-plausible helpers get a second life as PDR may clauses.
    out.pdr_candidate_lemmas = lemmas.candidate_exprs();
  }
  return out;
}

HelperGenFlow::HelperGenFlow(genai::LlmClient& llm, FlowOptions options)
    : llm_(llm), options_(std::move(options)) {}

FlowReport HelperGenFlow::run(VerificationTask& task) {
  util::Stopwatch watch;
  FlowReport report;
  report.flow = "helper_generation";
  report.design = task.name;
  report.model = llm_.model_name();
  report.engine = mc::to_string(options_.target_engine);

  // 1. Render the Fig. 1 prompt: specification + RTL (+ targets).
  genai::PromptInputs inputs;
  inputs.design_name = task.name;
  inputs.spec = task.spec;
  inputs.rtl = task.rtl;
  if (options_.targets_in_prompt) inputs.target_properties = task.target_svas();
  const genai::Prompt prompt = genai::render_helper_generation_prompt(inputs);

  // 2. One model round trip.
  GENFV_TRACE_INSTANT("flow", "mine_start");
  const genai::Completion completion = [&] {
    GENFV_TRACE_SPAN("flow", "mine");
    return llm_.complete(prompt);
  }();
  report.llm_seconds += completion.latency_seconds;

  IterationReport iteration;
  iteration.index = 1;
  iteration.prompt_tokens = completion.prompt_tokens;
  iteration.completion_tokens = completion.completion_tokens;
  iteration.llm_latency_seconds = completion.latency_seconds;

  // 3. Candidate pipeline: parse -> screen -> prove -> admit.
  LemmaManager lemmas(task, {options_.engine, options_.review, options_.joint_induction});
  {
    GENFV_TRACE_SPAN("flow", "screen_prove_candidates");
    iteration.candidates = lemmas.process(genai::extract_assertions(completion.text));
  }
  for (const auto& c : iteration.candidates) {
    if (c.status == CandidateStatus::Proven) ++iteration.lemmas_admitted;
  }
  report.iterations.push_back(std::move(iteration));
  report.prove_seconds += lemmas.prove_seconds();

  // 4. Prove every target with the admitted lemmas as assumptions, using the
  // selected engine. A PDR proof pays its discovery back: the clauses of its
  // final inductive frame are admitted as lemmas for later targets.
  for (const std::size_t i : task.target_indices) {
    const auto& prop = task.ts.property(i);
    auto engine = mc::make_engine(options_.target_engine, task.ts,
                                  target_engine_options(options_, lemmas));
    const mc::EngineResult result = [&] {
      GENFV_TRACE_SPAN("flow", "prove_target");
      return engine->prove(prop.expr);
    }();
    for (const ir::NodeRef clause : result.invariant) {
      lemmas.admit_proven(clause, ir::to_string(clause));
    }
    TargetReport tr;
    tr.name = prop.name;
    tr.result = mc::to_induction_result(result);
    report.prove_seconds += tr.result.stats.seconds;
    report.targets.push_back(std::move(tr));
  }
  report.admitted_lemmas = lemmas.lemma_svas();

  report.total_seconds = watch.seconds() + report.llm_seconds;
  GENFV_LOG(Info, "flow") << "helper_generation on " << task.name << ": "
                          << report.admitted_lemmas.size() << " lemmas, targets proven="
                          << report.all_targets_proven();
  return report;
}

}  // namespace genfv::flow
