#include "flow/direct_miner_flow.hpp"

#include "genai/mining/miner.hpp"
#include "util/stopwatch.hpp"

namespace genfv::flow {

namespace {
/// Random-simulation sampling for the miners.
constexpr std::size_t kSampleSteps = 48;
constexpr std::size_t kSampleRestarts = 6;
}  // namespace

DirectMinerFlow::DirectMinerFlow(FlowOptions options, std::uint64_t seed)
    : options_(std::move(options)), seed_(seed) {}

FlowReport DirectMinerFlow::run(VerificationTask& task) {
  // Mine candidates straight off the design — all passes, no noise.
  util::Stopwatch watch;
  sim::RandomSimulator simulator(task.ts, seed_);
  const auto samples = simulator.sample_states(kSampleSteps, kSampleRestarts);
  util::Xoshiro256 rng(seed_);
  genai::MiningContext ctx{task.ts, samples, nullptr, rng};
  std::vector<genai::CandidateInvariant> candidates;
  for (const auto& miner : genai::standard_miners()) {
    miner->mine(ctx, candidates);
  }
  Proposal first;
  for (const auto& c : candidates) first.texts.push_back(c.sva);
  const double mine_seconds = watch.seconds();

  FlowReport report = run_lemma_loop(task, options_, "direct_miner",
                                     "none (structural + simulation mining)", std::move(first));
  report.seed = seed_;
  report.total_seconds += mine_seconds;
  return report;
}

}  // namespace genfv::flow
