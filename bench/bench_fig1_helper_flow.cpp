/// E2 — paper Fig. 1 flow ("Helper assertion generation using LLM").
///
/// Runs the one-shot spec+RTL -> LLM -> prove -> assume pipeline on every
/// zoo design with a GPT-4o-profile model, and reports per design how many
/// assertions were generated, how many survived the review gate as proven
/// lemmas, and whether the targets closed with them.

#include "bench_common.hpp"

namespace genfv {
namespace {

void run_experiment() {
  bench::print_header(
      "E2: helper-assertion generation flow over the design zoo",
      "Fig. 1 + Results (V)",
      "Generated helpers are proven first, then used as assumptions for the "
      "target proofs.");

  util::Table table({"design", "category", "candidates", "lemmas", "targets proven",
                     "target k", "prove time", "model latency"});
  flow::JobSpec spec = flow::JobSpec::cli();
  spec.flow = flow::FlowKind::Helper;
  for (const auto& info : designs::all_designs()) {
    auto task = designs::make_task(info);
    const flow::FlowReport report = flow::run_flow(spec, task);

    std::size_t max_k = 0;
    for (const auto& t : report.targets) max_k = std::max(max_k, t.result.k);
    table.add_row({info.name, info.category, std::to_string(report.candidates_total()),
                   std::to_string(report.admitted_lemmas.size()),
                   report.all_targets_proven() ? "yes" : "NO", std::to_string(max_k),
                   util::format_duration(report.prove_seconds),
                   util::format_duration(report.llm_seconds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Note: designs whose targets are inductive without lemmas (lfsr16) "
              "close regardless of what the model proposes.\n\n");
}

void BM_HelperGenFlowSyncCounters(benchmark::State& state) {
  flow::JobSpec spec = flow::JobSpec::cli();
  spec.flow = flow::FlowKind::Helper;
  for (auto _ : state) {
    auto task = designs::make_task("sync_counters");
    benchmark::DoNotOptimize(flow::run_flow(spec, task));
  }
}
BENCHMARK(BM_HelperGenFlowSyncCounters);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::run_experiment();
  return genfv::bench::run_benchmarks(argc, argv);
}
