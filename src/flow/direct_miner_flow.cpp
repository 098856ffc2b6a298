#include "flow/direct_miner_flow.hpp"

#include "genai/mining/miner.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

DirectMinerFlow::DirectMinerFlow(DirectMinerOptions options)
    : options_(std::move(options)) {}

FlowReport DirectMinerFlow::run(VerificationTask& task) {
  util::Stopwatch watch;
  FlowReport report;
  report.flow = "direct_miner";
  report.design = task.name;
  report.model = "none (structural + simulation mining)";
  report.engine = mc::to_string(options_.flow.target_engine);
  report.seed = options_.seed;

  // Mine candidates straight off the design — all passes, no noise.
  sim::RandomSimulator simulator(task.ts, options_.seed);
  const auto samples =
      simulator.sample_states(options_.sample_steps, options_.sample_restarts);
  util::Xoshiro256 rng(options_.seed);
  genai::MiningContext ctx{task.ts, samples, nullptr, rng};
  std::vector<genai::CandidateInvariant> candidates;
  for (const auto& miner : genai::standard_miners()) {
    miner->mine(ctx, candidates);
  }

  std::vector<std::string> texts;
  texts.reserve(candidates.size());
  for (const auto& c : candidates) texts.push_back(c.sva);

  const FlowOptions& flow = options_.flow;
  LemmaManager lemmas(task, {flow.engine, flow.review, flow.joint_induction});
  IterationReport iteration;
  iteration.index = 1;
  iteration.candidates = [&] {
    GENFV_TRACE_SPAN("flow", "screen_prove_candidates");
    return lemmas.process(texts);
  }();
  for (const auto& c : iteration.candidates) {
    if (c.status == CandidateStatus::Proven) ++iteration.lemmas_admitted;
  }
  report.iterations.push_back(std::move(iteration));
  report.admitted_lemmas = lemmas.lemma_svas();
  report.prove_seconds += lemmas.prove_seconds();

  const mc::EngineOptions target_opts = target_engine_options(flow, lemmas);
  for (const std::size_t i : task.target_indices) {
    const auto& prop = task.ts.property(i);
    auto engine = mc::make_engine(flow.target_engine, task.ts, target_opts);
    TargetReport tr;
    tr.name = prop.name;
    tr.result = mc::to_induction_result(engine->prove(prop.expr));
    report.prove_seconds += tr.result.stats.seconds;
    report.targets.push_back(std::move(tr));
  }

  report.total_seconds = watch.seconds();
  return report;
}

}  // namespace genfv::flow
