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

  const std::unique_ptr<sat::Backend> base_ptr = sat::make_backend(options_.sat_backend);
  sat::Backend& base_solver = *base_ptr;
  base_solver.set_conflict_budget(options_.conflict_budget);
  base_solver.set_stop_flag(options_.stop.get());
  base_solver.set_inprocessing(options_.sat_inprocess);
  if (!options_.drat_path.empty()) base_solver.start_proof(options_.drat_path + "_base");
  Unroller base(ts_, base_solver);
  base.assert_init();

  const std::unique_ptr<sat::Backend> step_ptr = sat::make_backend(options_.sat_backend);
  sat::Backend& step_solver = *step_ptr;
  step_solver.set_conflict_budget(options_.conflict_budget);
  step_solver.set_stop_flag(options_.stop.get());
  step_solver.set_inprocessing(options_.sat_inprocess);
  if (!options_.drat_path.empty()) step_solver.start_proof(options_.drat_path + "_step");
  Unroller step(ts_, step_solver);  // no init: arbitrary start state

  // Invariants asserted on every materialized frame of both cases: the
  // seeded lemmas plus any proven clauses absorbed from the live exchange.
  std::vector<ir::NodeRef> invariants = options_.lemmas;
  std::size_t base_lemma_frames = 0;
  std::size_t step_lemma_frames = 0;
  auto assert_base_upto = [&](std::size_t frame) {
    for (; base_lemma_frames <= frame; ++base_lemma_frames) {
      for (const ir::NodeRef inv : invariants) base.assert_at(inv, base_lemma_frames);
    }
  };
  auto assert_step_upto = [&](std::size_t frame) {
    for (; step_lemma_frames <= frame; ++step_lemma_frames) {
      for (const ir::NodeRef inv : invariants) step.assert_at(inv, step_lemma_frames);
    }
  };

  // Absorb newly published exchange clauses: materialize them in our own
  // manager and back-fill every frame the run has already built.
  std::size_t exchange_cursor = 0;
  // The backlog may carry the same clause many times (re-publishing slices,
  // independent members); assert each distinct fact once per run.
  AbsorbFilter absorb_filter;
  auto poll_exchange = [&] {
    if (options_.exchange_mailbox == nullptr) return;
    std::size_t absorbed = 0;
    for (const ExchangedClause& clause :
         options_.exchange_mailbox->fetch(options_.exchange_slot, &exchange_cursor)) {
      if (!absorb_filter.admit(clause)) continue;
      const ir::NodeRef expr = materialize(clause, ts_);
      if (expr == nullptr) continue;
      invariants.push_back(expr);
      result.invariant.push_back(expr);
      for (std::size_t f = 0; f < base_lemma_frames; ++f) base.assert_at(expr, f);
      for (std::size_t f = 0; f < step_lemma_frames; ++f) step.assert_at(expr, f);
      ++absorbed;
    }
    options_.exchange_mailbox->note_absorbed(options_.exchange_slot, absorbed);
  };

  auto finish = [&](Verdict verdict, std::size_t k) {
    result.verdict = verdict;
    result.depth = k;
    if (verdict != Verdict::Proven) result.invariant.clear();
    result.stats.absorb(base_solver.stats());
    result.stats.absorb(step_solver.stats());
    result.stats.seconds = watch.seconds();
    return result;
  };

  for (std::size_t k = 1; k <= options_.max_steps; ++k) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed)) {
      return finish(Verdict::Unknown, k - 1);
    }
    poll_exchange();
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
