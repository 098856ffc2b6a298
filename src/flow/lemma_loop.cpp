#include "flow/lemma_loop.hpp"

#include "genai/response_parser.hpp"
#include "ir/printer.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

namespace {

/// Book one target-proof engine run: its time into the report and, with
/// telemetry on, its counters into the registry under `engine.`, as
/// `--flow plain` publishes them.
void book_proof(const mc::EngineResult& result, FlowReport& report) {
  report.prove_seconds += result.stats.seconds;
  if (util::telemetry_on()) result.stats.publish_metrics("engine.");
}

/// Prove every target at once. Engines without a step-case artefact (BMC,
/// PDR) cannot feed the repair source; when they stall on Unknown, harvest
/// the step CEX from a k-induction run under the same lemmas — or adopt its
/// verdict outright if it concludes.
mc::EngineResult prove_jointly(VerificationTask& task, const FlowOptions& options,
                               const LemmaManager& lemmas, FlowReport& report) {
  const mc::EngineOptions opts = lemmas.engine_with_lemmas();
  auto engine = mc::make_engine(options.target_engine, task.ts, opts);
  mc::EngineResult result = [&] {
    GENFV_TRACE_SPAN("flow", "prove_targets");
    return engine->prove_all(task.target_exprs());
  }();
  book_proof(result, report);
  if (result.verdict == mc::Verdict::Unknown && !result.step_cex.has_value() &&
      options.target_engine != mc::EngineKind::KInduction) {
    auto kind = mc::make_engine(mc::EngineKind::KInduction, task.ts, opts);
    mc::EngineResult fallback = kind->prove_all(task.target_exprs());
    book_proof(fallback, report);
    if (fallback.verdict != mc::Verdict::Unknown) {
      result = std::move(fallback);
    } else {
      result.step_cex = std::move(fallback.step_cex);
    }
  }
  return result;
}

/// A PDR proof pays its discovery back: the clauses of its final inductive
/// frame become lemmas for later proofs and for --emit-lemmas.
void admit_invariant(const mc::EngineResult& result, LemmaManager& lemmas) {
  for (const ir::NodeRef clause : result.invariant) {
    lemmas.admit_proven(clause, ir::to_string(clause));
  }
}

}  // namespace

Proposal ask_model(genai::LlmClient& llm, const genai::Prompt& prompt) {
  Proposal proposal;
  proposal.completion = [&] {
    GENFV_TRACE_SPAN("flow", "mine");
    return llm.complete(prompt);
  }();
  proposal.texts = genai::extract_assertions(proposal.completion.text);
  return proposal;
}

FlowReport run_lemma_loop(VerificationTask& task, const FlowOptions& options,
                          std::string flow, std::string model,
                          std::optional<Proposal> first, const RepairSource& repair) {
  util::Stopwatch watch;
  FlowReport report;
  report.flow = std::move(flow);
  report.design = task.name;
  report.model = std::move(model);
  report.engine = mc::to_string(options.target_engine);

  LemmaManager lemmas(task, {mc::to_engine_options(options.engine), options.review});
  // One round: the proposal through the gate, booked as an iteration.
  const auto book = [&](const Proposal& proposal) {
    report.llm_seconds += proposal.completion.latency_seconds;
    IterationReport& round = report.iterations.emplace_back();
    round.index = report.iterations.size();
    round.prompt_tokens = proposal.completion.prompt_tokens;
    round.completion_tokens = proposal.completion.completion_tokens;
    round.llm_latency_seconds = proposal.completion.latency_seconds;
    round.candidates = [&] {
      GENFV_TRACE_SPAN("flow", "screen_prove_candidates");
      return lemmas.process(proposal.texts);
    }();
    for (const auto& c : round.candidates) {
      if (c.status == CandidateStatus::Proven) ++round.lemmas_admitted;
    }
  };
  if (first.has_value()) book(*first);

  std::optional<mc::EngineResult> joint;
  if (repair) {
    for (std::size_t round = 0;; ++round) {
      joint = prove_jointly(task, options, lemmas, report);
      if (joint->verdict != mc::Verdict::Unknown || !joint->step_cex.has_value() ||
          round == kMaxRepairRounds) {
        break;  // proven, falsified, budget, or out of repair rounds
      }
      const Proposal proposal = repair(*joint, lemmas);
      book(proposal);
      // Rejected candidates are worth another counterexample; an empty
      // proposal means the source is out of ideas.
      if (proposal.texts.empty()) {
        GENFV_LOG(Info, "flow") << report.flow << ": no candidates in round "
                                << report.iterations.size() << ", stopping";
        break;
      }
    }
  }

  // A joint Falsified over several targets leaves open which of them fails.
  const bool settled = joint.has_value() && !(joint->verdict == mc::Verdict::Falsified &&
                                              task.target_indices.size() >= 2);
  if (settled) admit_invariant(*joint, lemmas);
  for (const std::size_t i : task.target_indices) {
    const auto& prop = task.ts.property(i);
    TargetReport& target = report.targets.emplace_back();
    target.name = prop.name;
    if (settled) {
      target.result = mc::to_induction_result(*joint);
      continue;
    }
    auto engine =
        mc::make_engine(options.target_engine, task.ts, lemmas.engine_with_lemmas());
    const mc::EngineResult result = [&] {
      GENFV_TRACE_SPAN("flow", "prove_target");
      return engine->prove(prop.expr);
    }();
    admit_invariant(result, lemmas);
    book_proof(result, report);
    target.result = mc::to_induction_result(result);
  }
  report.admitted_lemmas = lemmas.lemma_svas();
  report.prove_seconds += lemmas.prove_seconds();
  report.total_seconds = watch.seconds() + report.llm_seconds;
  GENFV_LOG(Info, "flow") << report.flow << " on " << task.name << ": "
                          << report.iterations.size() << " round(s), "
                          << report.admitted_lemmas.size()
                          << " lemmas, targets proven " << report.targets_proven() << "/"
                          << report.targets.size();
  return report;
}

}  // namespace genfv::flow
