#include "mc/kinduction.hpp"

#include "mc/unroller.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc {

KInductionEngine::KInductionEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {}

EngineResult KInductionEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  GENFV_TRACE_SPAN("mc", "kinduction_prove");
  util::Stopwatch watch;
  EngineResult result;

  // The conjunction of all properties (and it is what gets assumed on
  // earlier frames, making this *mutual* induction).
  const ir::NodeRef prop = conjoin_properties(ts_, properties);

  sat::Solver base_solver;
  base_solver.set_conflict_budget(options_.conflict_budget);
  base_solver.set_stop_flag(options_.stop.get());
  if (!options_.drat_path.empty()) base_solver.start_proof(options_.drat_path + "_base");
  Unroller base(ts_, base_solver, FrameZero::Init);

  sat::Solver step_solver;
  step_solver.set_conflict_budget(options_.conflict_budget);
  step_solver.set_stop_flag(options_.stop.get());
  if (!options_.drat_path.empty()) step_solver.start_proof(options_.drat_path + "_step");
  Unroller step(ts_, step_solver, FrameZero::Free);  // arbitrary start state

  // The seeded lemmas are asserted on every materialized frame of both cases.
  std::size_t base_lemma_frames = 0;
  std::size_t step_lemma_frames = 0;
  auto assert_base_upto = [&](std::size_t frame) {
    for (; base_lemma_frames <= frame; ++base_lemma_frames) {
      for (const ir::NodeRef inv : options_.lemmas) base.assert_at(inv, base_lemma_frames);
    }
  };
  auto assert_step_upto = [&](std::size_t frame) {
    for (; step_lemma_frames <= frame; ++step_lemma_frames) {
      for (const ir::NodeRef inv : options_.lemmas) step.assert_at(inv, step_lemma_frames);
    }
  };

  auto finish = [&](Verdict verdict, std::size_t k) {
    result.verdict = verdict;
    // The step CEX of k-1 is stale once step k closes the proof.
    if (verdict == Verdict::Proven) result.step_cex.reset();
    result.depth = k;
    result.stats.absorb(base_solver);
    result.stats.absorb(step_solver);
    result.stats.seconds = watch.seconds();
    return result;
  };

  for (std::size_t k = 1; k <= options_.max_steps; ++k) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed)) {
      return finish(Verdict::Unknown, k - 1);
    }
    // ---- Base case: no violation at depth k-1 from the initial states.
    base.extend_to(k - 1);
    assert_base_upto(k - 1);
    const sat::Lit bad_base = ~base.lit_at(prop, k - 1);
    const sat::LBool base_answer = base_solver.solve({bad_base});
    if (base_answer == sat::LBool::True) {
      result.cex = base.extract_trace(k);
      return finish(Verdict::Falsified, k);
    }
    if (base_answer == sat::LBool::Undef) {
      return finish(Verdict::Unknown, k);
    }
    base_solver.add_clause(~bad_base);  // property holds at frame k-1 for good

    // ---- Inductive step: P on frames 0..k-1 forces P at frame k.
    step.extend_to(k);
    assert_step_upto(k);
    if (options_.simple_path) {
      // New frame k must differ from every earlier frame.
      for (std::size_t i = 0; i < k; ++i) step.assert_states_differ(i, k);
    }
    step_solver.add_clause(step.lit_at(prop, k - 1));  // assume P at frame k-1
    const sat::Lit bad_step = ~step.lit_at(prop, k);
    const sat::LBool step_answer = step_solver.solve({bad_step});
    if (step_answer == sat::LBool::False) {
      return finish(Verdict::Proven, k);
    }
    if (step_answer == sat::LBool::Undef) {
      return finish(Verdict::Unknown, k);
    }
    // Step failed: remember the spurious trace (frames 0..k) for analysis.
    result.step_cex = step.extract_trace(k + 1);
  }

  return finish(Verdict::Unknown, options_.max_steps);
}

}  // namespace genfv::mc
