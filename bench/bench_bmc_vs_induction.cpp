/// E6 — paper §II-A background claim: "BMC can find bugs in large designs.
/// However, the correctness of a property is guaranteed only for the
/// analysis bound. Induction-based proof must be applied to prove the design
/// will work all the time."
///
/// Sweep BMC bounds on true properties (cost grows with the bound, verdict
/// stays Unknown forever), and contrast with k-induction: unaided it also
/// stays Unknown on these designs, but with the GenAI-mined lemma each
/// closes immediately at k=1.

#include "bench_common.hpp"
#include "mc/bmc.hpp"
#include "mc/kinduction.hpp"
#include "sva/compiler.hpp"

namespace genfv {
namespace {

void run_experiment() {
  bench::print_header(
      "E6: bounded checking vs unbounded induction",
      "Section II-A",
      "BMC is bug-finding only; induction (helped by lemmas) concludes for "
      "all time.");

  util::Table table({"design", "method", "bound/k", "verdict", "time", "conflicts"});

  for (const char* name : {"sync_counters", "sequencer", "gray_counter"}) {
    // BMC sweep.
    for (const std::size_t depth : {8u, 16u, 32u, 64u}) {
      auto task = designs::make_task(name);
      mc::BmcEngine bmc(task.ts, {.max_steps = depth});
      const auto r = bmc.prove_all(task.target_exprs());
      table.add_row({name, "BMC", std::to_string(depth), mc::to_string(r.verdict),
                     util::format_duration(r.stats.seconds),
                     std::to_string(r.stats.conflicts)});
    }
    // Plain k-induction (generous k).
    {
      auto task = designs::make_task(name);
      mc::KInductionEngine engine(task.ts, {.max_steps = 16});
      const auto r = engine.prove_all(task.target_exprs());
      table.add_row({name, "k-induction", "k<=16", mc::to_string(r.verdict),
                     util::format_duration(r.stats.seconds),
                     std::to_string(r.stats.conflicts)});
    }
    // k-induction with GenAI lemmas.
    {
      auto task = designs::make_task(name);
      const auto report = flow::run_flow(flow::JobSpec::cli(), task);
      const auto& r = report.targets.empty() ? mc::InductionResult{}
                                             : report.targets[0].result;
      table.add_row({name, "k-induction + GenAI lemmas", "k=" + std::to_string(r.k),
                     mc::to_string(r.verdict), util::format_duration(r.stats.seconds),
                     std::to_string(r.stats.conflicts)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("BMC never concludes on a true property, at any bound; induction "
              "does — immediately, once the right lemma is assumed.\n\n");
}

void BM_BmcDepthSweep(benchmark::State& state) {
  for (auto _ : state) {
    auto task = designs::make_task("sync_counters");
    mc::BmcEngine bmc(task.ts, {.max_steps = static_cast<std::size_t>(state.range(0))});
    benchmark::DoNotOptimize(bmc.prove(task.target_exprs()[0]));
  }
}
BENCHMARK(BM_BmcDepthSweep)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::run_experiment();
  return genfv::bench::run_benchmarks(argc, argv);
}
