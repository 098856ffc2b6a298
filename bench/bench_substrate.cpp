/// Substrate microbenchmarks (not tied to a paper figure): throughput of the
/// layers everything else stands on — CDCL solving, bit-blasting, frame
/// unrolling, simulation, elaboration and one simulated-LLM round trip.
/// Used to catch performance regressions in the engine stack.

#include "bench_common.hpp"
#include "bitblast/bitblaster.hpp"
#include "genai/prompt.hpp"
#include "hdl/elaborator.hpp"
#include "mc/bmc.hpp"
#include "mc/kinduction.hpp"
#include "mc/unroller.hpp"
#include "sat/solver.hpp"
#include "sim/random_sim.hpp"
#include "util/rng.hpp"

namespace genfv {
namespace {

void BM_SatRandom3Cnf(benchmark::State& state) {
  // Fixed random instance family near the phase transition.
  const int num_vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    util::Xoshiro256 rng(7);
    sat::Solver solver;
    for (int v = 0; v < num_vars; ++v) (void)solver.new_var();
    bool ok = true;
    for (int c = 0; c < num_vars * 4; ++c) {
      std::vector<sat::Lit> clause;
      for (int l = 0; l < 3; ++l) {
        clause.push_back(sat::mk_lit(
            static_cast<sat::Var>(rng.below(static_cast<std::uint64_t>(num_vars))),
            rng.chance(0.5)));
      }
      ok = solver.add_clause(std::move(clause)) && ok;
    }
    state.ResumeTiming();
    if (ok) benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatRandom3Cnf)->Arg(50)->Arg(100)->Arg(200);

void BM_BitblastMul(benchmark::State& state) {
  const unsigned width = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ir::NodeManager nm;
    sat::Solver solver;
    bitblast::BitBlaster blaster(solver);
    bitblast::BlastCache cache;
    const ir::NodeRef a = nm.mk_input("a", width);
    const ir::NodeRef b = nm.mk_input("b", width);
    cache.emplace(a, blaster.fresh_vector(width));
    cache.emplace(b, blaster.fresh_vector(width));
    benchmark::DoNotOptimize(blaster.blast(nm.mk_mul(a, b), cache));
  }
}
BENCHMARK(BM_BitblastMul)->Arg(8)->Arg(16)->Arg(32);

void BM_UnrollFrames(benchmark::State& state) {
  auto task = designs::make_task("secded84");
  for (auto _ : state) {
    sat::Solver solver;
    mc::Unroller unroller(task.ts, solver);
    unroller.extend_to(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(unroller.frame_count());
  }
}
BENCHMARK(BM_UnrollFrames)->Arg(4)->Arg(16)->Arg(64);

void BM_SimulatorStep(benchmark::State& state) {
  auto task = designs::make_task("secded84");
  sim::RandomSimulator simulator(task.ts, 11);
  sim::Assignment env = simulator.reset_state();
  for (const ir::NodeRef in : task.ts.inputs()) env[in] = 0;
  for (auto _ : state) {
    auto next = sim::step(task.ts, env);
    for (auto& [k, v] : next) env[k] = v;
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_SimulatorStep);

void BM_RandomSimRun(benchmark::State& state) {
  auto task = designs::make_task("fifo_ctrl");
  for (auto _ : state) {
    sim::RandomSimulator simulator(task.ts, 13);
    benchmark::DoNotOptimize(simulator.run(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RandomSimRun)->Arg(64)->Arg(256);

void BM_ElaborateListing1(benchmark::State& state) {
  const std::string rtl = designs::design_by_name("sync_counters").rtl;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdl::elaborate_source(rtl));
  }
}
BENCHMARK(BM_ElaborateListing1);

void BM_KInductionWithLemma(benchmark::State& state) {
  auto task = designs::make_task("sync_counters");
  auto& nm = task.ts.nm();
  const ir::NodeRef helper =
      nm.mk_eq(task.ts.lookup("count1"), task.ts.lookup("count2"));
  for (auto _ : state) {
    mc::KInductionEngine engine(task.ts, {.max_steps = 4, .lemmas = {helper}});
    benchmark::DoNotOptimize(engine.prove(task.target_exprs()[0]));
  }
}
BENCHMARK(BM_KInductionWithLemma);

void BM_SimulatedLlmRoundTrip(benchmark::State& state) {
  const auto& info = designs::design_by_name("hamming74");
  genai::PromptInputs inputs;
  inputs.design_name = info.name;
  inputs.spec = info.spec;
  inputs.rtl = info.rtl;
  const genai::Prompt prompt = genai::render_helper_generation_prompt(inputs);
  genai::SimulatedLlm llm(genai::profile_by_name("gpt-4o"), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llm.complete(prompt));
  }
}
BENCHMARK(BM_SimulatedLlmRoundTrip);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::bench::print_header("Substrate microbenchmarks", "n/a (regression tracking)",
                             "SAT / bit-blast / unroll / simulate / elaborate / LLM.");
  return genfv::bench::run_benchmarks(argc, argv);
}
