/// E4 — Results §V, claim 1: "the flow was able to figure out necessary
/// helper assertions that helped in faster proof for complex properties".
///
/// Three provers per design:
///   * plain k-induction (no lemmas),
///   * k-induction with simple-path constraints (the classical, non-AI
///     strengthening — our baseline comparator),
///   * the GenAI repair flow (engine time only; model latency reported
///     separately by E2/E3).
/// The shape to reproduce: most zoo targets are UNREACHABLE for the plain
/// prover at practical k, the simple-path baseline closes only small designs
/// at much higher cost, and the GenAI flow closes everything at k=1 with
/// millisecond proofs.

#include "bench_common.hpp"
#include "flow/direct_miner_flow.hpp"
#include "mc/kinduction.hpp"

namespace genfv {
namespace {

std::string verdict_cell(const mc::EngineResult& r) {
  if (r.verdict == mc::Verdict::Proven) {
    return "proven k=" + std::to_string(r.depth) + " " + util::format_duration(r.stats.seconds);
  }
  return mc::to_string(r.verdict) + " @k=" + std::to_string(r.depth) + " " +
         util::format_duration(r.stats.seconds);
}

void run_experiment() {
  bench::print_header(
      "E4: proof throughput — plain vs simple-path vs GenAI lemmas",
      "Results (V), claim 1",
      "Proven helper assertions unlock and accelerate induction proofs.");

  util::Table table({"design", "plain k-ind (k<=12)", "simple-path (k<=12)",
                     "direct miner (no LLM)", "GenAI flow", "GenAI engine time"});
  for (const auto& info : designs::all_designs()) {
    auto plain_task = designs::make_task(info);
    mc::KInductionEngine plain(plain_task.ts, {.max_steps = 12});
    const auto r_plain = plain.prove_all(plain_task.target_exprs());

    auto sp_task = designs::make_task(info);
    mc::KInductionEngine simple_path(sp_task.ts, {.max_steps = 12, .simple_path = true,
                                                  .conflict_budget = 2'000'000});
    const auto r_sp = simple_path.prove_all(sp_task.target_exprs());

    // The classical comparator: same analyses, no LLM in the loop.
    auto miner_task = designs::make_task(info);
    flow::DirectMinerFlow miner(bench::default_flow_options());
    const auto miner_report = miner.run(miner_task);
    const std::string miner_cell =
        std::string(miner_report.all_targets_proven() ? "proven" : "unproven") + " " +
        util::format_duration(miner_report.prove_seconds);

    auto genai_task = designs::make_task(info);
    genai::SimulatedLlm llm(genai::profile_by_name("gpt-4o"), bench::kSeed);
    flow::CexRepairFlow flow(llm, bench::default_flow_options());
    const auto report = flow.run(genai_task);
    std::string genai_cell = report.all_targets_proven() ? "proven" : "unproven";
    if (!report.targets.empty()) {
      genai_cell += " k=" + std::to_string(report.targets[0].result.k);
    }

    table.add_row({info.name, verdict_cell(r_plain), verdict_cell(r_sp), miner_cell,
                   genai_cell, util::format_duration(report.prove_seconds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: plain induction closes only lfsr16; the simple-path "
      "baseline additionally closes the hold-dominated designs (sequencer, "
      "parity_codec, hamming74, secded84) but not the large-orbit ones "
      "(counters, gray, token_ring, fifo, accumulator); the GenAI flow closes "
      "every design at k=1 and is orders of magnitude cheaper than plain "
      "induction on the heavy designs (fifo_ctrl, dual_accumulator).\n\n");
}

void BM_PlainInductionSequencer(benchmark::State& state) {
  for (auto _ : state) {
    auto task = designs::make_task("sequencer");
    mc::KInductionEngine engine(task.ts,
                                {.max_steps = static_cast<std::size_t>(state.range(0))});
    benchmark::DoNotOptimize(engine.prove_all(task.target_exprs()));
  }
}
BENCHMARK(BM_PlainInductionSequencer)->Arg(4)->Arg(12)->Arg(16);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::run_experiment();
  return genfv::bench::run_benchmarks(argc, argv);
}
