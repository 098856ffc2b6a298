#include "flow/job.hpp"

#include <algorithm>
#include <utility>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "genai/mining/miner.hpp"
#include "genai/simulated_llm.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace genfv::flow {

namespace {

/// Random-simulation sampling for the direct miner.
constexpr std::size_t kSampleSteps = 48;
constexpr std::size_t kSampleRestarts = 6;

/// The LLM-free comparator behind `--flow direct`: the mining analyses run
/// straight on the design (no prompt, no text channel, no noise, no
/// per-model insight limit) and their candidates go through the same lemma
/// loop as the paper's flows. It separates the value of the invariants from
/// that of the LLM packaging, and bounds what any model profile can reach.
FlowReport run_direct_miner(VerificationTask& task, const FlowOptions& options,
                            std::uint64_t seed) {
  util::Stopwatch watch;
  sim::RandomSimulator simulator(task.ts, seed);
  const auto samples = simulator.sample_states(kSampleSteps, kSampleRestarts);
  util::Xoshiro256 rng(seed);
  genai::MiningContext ctx{task.ts, samples, nullptr, rng};
  std::vector<genai::CandidateInvariant> candidates;
  for (const auto& miner : genai::standard_miners()) miner->mine(ctx, candidates);
  Proposal first;
  for (const auto& c : candidates) first.texts.push_back(c.sva);
  const double mine_seconds = watch.seconds();

  FlowReport report = run_lemma_loop(task, options, "direct_miner",
                                     "none (structural + simulation mining)", std::move(first));
  report.total_seconds += mine_seconds;
  return report;
}

}  // namespace

VerificationTask build_task(const JobSource& source) {
  VerificationTask task;
  switch (source.kind) {
    case JobSource::Kind::Design: task = designs::make_task(source.name); break;
    case JobSource::Kind::File: task = VerificationTask::from_file(source.name); break;
    case JobSource::Kind::Rtl:
      task = VerificationTask::from_rtl(source.name, /*spec=*/"", source.rtl, source.targets);
      break;
  }
  if (source.select.empty()) return task;

  // Selection order follows `select`, so per-property settings given in the
  // same order stay aligned with the targets.
  std::vector<std::size_t> selected;
  for (const std::string& name : source.select) {
    const auto it = std::find_if(
        task.target_indices.begin(), task.target_indices.end(),
        [&](std::size_t idx) { return task.ts.property(idx).name == name; });
    if (it == task.target_indices.end()) {
      std::vector<std::string> known;
      for (const std::size_t idx : task.target_indices) known.push_back(task.ts.property(idx).name);
      throw UnknownTargetError("no property named '" + name + "' in this design (has: " +
                               (known.empty() ? "none" : util::join(known, ", ")) + ")");
    }
    selected.push_back(*it);
  }
  task.target_indices = std::move(selected);
  return task;
}

std::optional<FlowKind> flow_kind_from_string(const std::string& name) {
  if (name == "cex") return FlowKind::Cex;
  if (name == "helper") return FlowKind::Helper;
  if (name == "direct") return FlowKind::Direct;
  if (name == "plain") return FlowKind::Plain;
  return std::nullopt;
}

FlowReport run_flow(const JobSpec& spec, VerificationTask& task,
                    std::vector<ir::NodeRef> lemmas, const std::string& drat_path) {
  if (spec.flow == FlowKind::Plain) {
    throw UsageError("the plain flow has no lemma loop to run");
  }
  FlowOptions options;
  options.engine.max_k = spec.max_steps;
  options.engine.lemmas = std::move(lemmas);
  options.engine.drat_path = drat_path;
  options.review.sim_screen = spec.sim_screen;
  options.target_engine = spec.engine;

  FlowReport report;
  if (spec.flow == FlowKind::Direct) {
    report = run_direct_miner(task, options, spec.seed);
  } else {
    genai::SimulatedLlm llm(genai::profile_by_name(spec.model), spec.seed);
    report = spec.flow == FlowKind::Helper ? HelperGenFlow(llm, options).run(task)
                                           : CexRepairFlow(llm, options).run(task);
  }
  report.seed = spec.seed;
  return report;
}

}  // namespace genfv::flow
