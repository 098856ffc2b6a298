/// E3 — paper Fig. 2 flow ("Helper assertion generation for induction step
/// failure using LLM").
///
/// Runs the iterative prove -> step-CEX -> LLM -> prove-lemma -> retry loop
/// on every zoo design and reports convergence: repair iterations (= CEXes
/// analyzed), candidates seen, lemmas admitted, and the final verdict.

#include "bench_common.hpp"

namespace genfv {
namespace {

void run_experiment() {
  bench::print_header(
      "E3: CEX-guided repair flow over the design zoo",
      "Fig. 2 + Results (V)",
      "Induction-step CEXes are rendered as waveforms, analyzed by the model, "
      "and repaired with proven lemmas.");

  util::Table table({"design", "iterations", "candidates", "lemmas", "verdict",
                     "prove time", "model latency"});
  for (const auto& info : designs::all_designs()) {
    auto task = designs::make_task(info);
    const flow::FlowReport report = flow::run_flow(flow::JobSpec::cli(), task);
    table.add_row({info.name, std::to_string(report.iterations.size()),
                   std::to_string(report.candidates_total()),
                   std::to_string(report.admitted_lemmas.size()),
                   report.all_targets_proven() ? "proven" : "UNPROVEN",
                   util::format_duration(report.prove_seconds),
                   util::format_duration(report.llm_seconds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Iterations = LLM round trips; 0 means plain k-induction already "
              "closed the target (no CEX to analyze).\n\n");
}

void BM_CexRepairHamming74(benchmark::State& state) {
  for (auto _ : state) {
    auto task = designs::make_task("hamming74");
    benchmark::DoNotOptimize(flow::run_flow(flow::JobSpec::cli(), task));
  }
}
BENCHMARK(BM_CexRepairHamming74);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::run_experiment();
  return genfv::bench::run_benchmarks(argc, argv);
}
