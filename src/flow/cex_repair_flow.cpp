#include "flow/cex_repair_flow.hpp"

#include "genai/prompt.hpp"
#include "genai/response_parser.hpp"
#include "ir/printer.hpp"
#include "sim/waveform.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

CexRepairFlow::CexRepairFlow(genai::LlmClient& llm, FlowOptions options)
    : llm_(llm), options_(std::move(options)) {}

FlowReport CexRepairFlow::run(VerificationTask& task) {
  util::Stopwatch watch;
  FlowReport report;
  report.flow = "cex_repair";
  report.design = task.name;
  report.model = llm_.model_name();
  report.engine = mc::to_string(options_.target_engine);

  LemmaManager lemmas(task, {options_.engine, options_.review, options_.joint_induction});

  mc::EngineResult last_result;
  for (std::size_t iter = 1; iter <= options_.max_iterations + 1; ++iter) {
    // Attempt the proof with everything admitted so far. Built per
    // iteration, so each repair round's fresh candidates (with
    // pdr_seed_candidates) ride into the next proof attempt.
    const mc::EngineOptions opts = target_engine_options(options_, lemmas);
    auto engine = mc::make_engine(options_.target_engine, task.ts, opts);
    last_result = [&] {
      GENFV_TRACE_SPAN("flow", "prove_targets");
      return engine->prove_all(task.target_exprs());
    }();
    report.prove_seconds += last_result.stats.seconds;

    // Engines without a step-case artefact (BMC, PDR) cannot feed the
    // repair prompt. When they stall on Unknown, harvest the step CEX from
    // a k-induction run under the same lemmas — or adopt its verdict
    // outright if it concludes — so the repair loop keeps working.
    if (last_result.verdict == mc::Verdict::Unknown &&
        !last_result.step_cex.has_value() &&
        options_.target_engine != mc::EngineKind::KInduction) {
      auto kind = mc::make_engine(mc::EngineKind::KInduction, task.ts, opts);
      mc::EngineResult fallback = kind->prove_all(task.target_exprs());
      report.prove_seconds += fallback.stats.seconds;
      if (fallback.verdict != mc::Verdict::Unknown) {
        last_result = std::move(fallback);
      } else {
        last_result.step_cex = std::move(fallback.step_cex);
      }
    }

    if (last_result.verdict != mc::Verdict::Unknown || !last_result.step_cex.has_value() ||
        iter > options_.max_iterations) {
      break;  // proven, falsified, budget, or out of repair iterations
    }

    // Induction-step failure: render the artefacts the paper feeds the LLM.
    const sim::Trace& cex = *last_result.step_cex;
    sim::WaveformOptions wave_opts;
    wave_opts.failure_frame = cex.size() - 1;
    const std::string waveform =
        sim::render_waveform(cex, sim::default_signals(task.ts), wave_opts);

    genai::PromptInputs inputs;
    inputs.design_name = task.name;
    inputs.spec = task.spec;
    inputs.rtl = task.rtl;
    if (options_.targets_in_prompt) inputs.target_properties = task.target_svas();
    inputs.proven_lemmas = lemmas.lemma_svas();
    inputs.failed_property = util::join(task.target_svas(), " && ");
    inputs.cex_waveform = waveform;
    inputs.induction_depth = last_result.depth;
    const genai::Prompt prompt = genai::render_cex_repair_prompt(inputs);

    const genai::Completion completion = [&] {
      GENFV_TRACE_SPAN("flow", "mine");
      return llm_.complete(prompt);
    }();
    report.llm_seconds += completion.latency_seconds;

    IterationReport iteration;
    iteration.index = iter;
    iteration.prompt_tokens = completion.prompt_tokens;
    iteration.completion_tokens = completion.completion_tokens;
    iteration.llm_latency_seconds = completion.latency_seconds;
    const auto extracted = genai::extract_assertions(completion.text);
    iteration.candidates = [&] {
      GENFV_TRACE_SPAN("flow", "screen_prove_candidates");
      return lemmas.process(extracted);
    }();
    for (const auto& c : iteration.candidates) {
      if (c.status == CandidateStatus::Proven) ++iteration.lemmas_admitted;
    }
    report.iterations.push_back(std::move(iteration));

    // An unproductive round (candidates rejected) is worth retrying with the
    // next counterexample; an *empty* answer means the model is out of
    // ideas, so further round trips would only repeat it.
    if (extracted.empty()) {
      GENFV_LOG(Info, "flow") << "cex_repair: model produced no candidates in iteration "
                              << iter << ", stopping";
      break;
    }
  }

  // A PDR proof exports its inductive-frame clauses as proven lemmas, so a
  // follow-up helper-generation run (or a later target) can assume them.
  for (const ir::NodeRef clause : last_result.invariant) {
    lemmas.admit_proven(clause, ir::to_string(clause));
  }
  report.admitted_lemmas = lemmas.lemma_svas();
  report.prove_seconds += lemmas.prove_seconds();
  for (const std::size_t i : task.target_indices) {
    TargetReport tr;
    tr.name = task.ts.property(i).name;
    // Joint verdict applies to every target.
    tr.result = mc::to_induction_result(last_result);
    report.targets.push_back(std::move(tr));
  }
  report.total_seconds = watch.seconds() + report.llm_seconds;
  GENFV_LOG(Info, "flow") << "cex_repair on " << task.name << ": verdict="
                          << mc::to_string(last_result.verdict) << " after "
                          << report.iterations.size() << " repair iteration(s)";
  return report;
}

}  // namespace genfv::flow
