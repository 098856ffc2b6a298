/// E1 — paper Fig. 3 + Listings 1–3.
///
/// Reproduces the worked example end to end: the induction step of
/// `&count1 |-> &count2` fails on the synchronized-counters design with a
/// spurious trace whose final frame has count1 all-ones while count2 is not
/// (the paper highlights bit 31 of count2 = 0); the Listing 3 helper
/// `count1 == count2` is inductive at k=1 and closes the proof immediately.
/// google-benchmark timings compare the proof attempt without and with the
/// helper lemma.

#include "bench_common.hpp"
#include "mc/kinduction.hpp"
#include "sim/waveform.hpp"
#include "sva/compiler.hpp"
#include "util/strings.hpp"

namespace genfv {
namespace {

flow::VerificationTask make_paper_task() { return designs::make_task("sync_counters"); }

void run_experiment() {
  bench::print_header(
      "E1: induction-step failure on sync_counters",
      "Fig. 3, Listings 1-3",
      "Step CEX shows count1 saturated while count2 is not; helper repairs it.");

  auto task = make_paper_task();
  auto& nm = task.ts.nm();
  const ir::NodeRef target = task.target_exprs()[0];
  const ir::NodeRef helper =
      nm.mk_eq(task.ts.lookup("count1"), task.ts.lookup("count2"));

  util::Table table({"proof attempt", "verdict", "k", "SAT calls", "conflicts", "time"});

  mc::KInductionEngine without(task.ts, {.max_steps = 10});
  const auto r_without = without.prove(target);
  table.add_row({"target, no helper", mc::to_string(r_without.verdict),
                 std::to_string(r_without.depth), std::to_string(r_without.stats.sat_calls),
                 std::to_string(r_without.stats.conflicts),
                 util::format_duration(r_without.stats.seconds)});

  mc::KInductionEngine helper_engine(task.ts, {.max_steps = 10});
  const auto r_helper = helper_engine.prove(helper);
  table.add_row({"helper (Listing 3)", mc::to_string(r_helper.verdict),
                 std::to_string(r_helper.depth), std::to_string(r_helper.stats.sat_calls),
                 std::to_string(r_helper.stats.conflicts),
                 util::format_duration(r_helper.stats.seconds)});

  mc::KInductionEngine with(task.ts, {.max_steps = 10, .lemmas = {helper}});
  const auto r_with = with.prove(target);
  table.add_row({"target + helper lemma", mc::to_string(r_with.verdict),
                 std::to_string(r_with.depth), std::to_string(r_with.stats.sat_calls),
                 std::to_string(r_with.stats.conflicts),
                 util::format_duration(r_with.stats.seconds)});

  std::printf("%s\n", table.to_string().c_str());

  if (r_without.step_cex.has_value()) {
    const auto& cex = *r_without.step_cex;
    const std::size_t last = cex.size() - 1;
    std::printf("Induction-step counterexample (Fig. 3 artefact; state at t0 is "
                "arbitrary/unreachable):\n\n");
    sim::WaveformOptions wave_opts;
    wave_opts.failure_frame = last;
    std::printf("%s\n", sim::render_waveform(cex, sim::default_signals(task.ts),
                                             wave_opts)
                            .c_str());
    std::printf("%s\n\n",
                sim::render_bit_diff(cex, last, "count1", task.ts.lookup("count1"),
                                     "count2", task.ts.lookup("count2"))
                    .c_str());
  }
}

void BM_ProveTargetWithoutHelper(benchmark::State& state) {
  auto task = make_paper_task();
  const ir::NodeRef target = task.target_exprs()[0];
  for (auto _ : state) {
    mc::KInductionEngine engine(task.ts,
                                {.max_steps = static_cast<std::size_t>(state.range(0))});
    benchmark::DoNotOptimize(engine.prove(target));
  }
}
BENCHMARK(BM_ProveTargetWithoutHelper)->Arg(2)->Arg(5)->Arg(10);

void BM_ProveTargetWithHelper(benchmark::State& state) {
  auto task = make_paper_task();
  auto& nm = task.ts.nm();
  const ir::NodeRef target = task.target_exprs()[0];
  const ir::NodeRef helper =
      nm.mk_eq(task.ts.lookup("count1"), task.ts.lookup("count2"));
  for (auto _ : state) {
    mc::KInductionEngine engine(task.ts, {.max_steps = 10, .lemmas = {helper}});
    benchmark::DoNotOptimize(engine.prove(target));
  }
}
BENCHMARK(BM_ProveTargetWithHelper);

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  genfv::run_experiment();
  return genfv::bench::run_benchmarks(argc, argv);
}
