#include "mc/bmc.hpp"

#include "mc/unroller.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc {

BmcEngine::BmcEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {}

EngineResult BmcEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  GENFV_TRACE_SPAN("mc", "bmc_check");
  util::Stopwatch watch;
  EngineResult result;
  const ir::NodeRef property = conjoin_properties(ts_, properties);

  const std::unique_ptr<sat::Backend> solver_ptr = sat::make_backend(options_.sat_backend);
  sat::Backend& solver = *solver_ptr;
  solver.set_conflict_budget(options_.conflict_budget);
  solver.set_stop_flag(options_.stop.get());
  solver.set_inprocessing(options_.sat_inprocess);
  if (!options_.drat_path.empty()) solver.start_proof(options_.drat_path);
  Unroller unroller(ts_, solver);
  unroller.assert_init();

  // Invariants (seeded lemmas + absorbed exchange clauses) asserted at every
  // frame.
  std::vector<ir::NodeRef> invariants = options_.lemmas;
  std::size_t exchange_cursor = 0;
  // The backlog may carry the same clause many times (re-publishing slices,
  // independent members); assert each distinct fact once per run.
  AbsorbFilter absorb_filter;
  auto poll_exchange = [&](std::size_t depth) {
    if (options_.exchange_mailbox == nullptr) return;
    std::size_t absorbed = 0;
    for (const ExchangedClause& clause :
         options_.exchange_mailbox->fetch(options_.exchange_slot, &exchange_cursor)) {
      if (!absorb_filter.admit(clause)) continue;
      const ir::NodeRef expr = materialize(clause, ts_);
      if (expr == nullptr) continue;
      // Back-fill the frames materialized before this clause arrived; the
      // per-depth loop below covers the current and future frames.
      invariants.push_back(expr);
      for (std::size_t f = 0; f < depth; ++f) unroller.assert_at(expr, f);
      ++absorbed;
    }
    options_.exchange_mailbox->note_absorbed(options_.exchange_slot, absorbed);
  };

  for (std::size_t depth = 0; depth <= options_.max_steps; ++depth) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed)) {
      result.verdict = Verdict::Unknown;
      break;
    }
    unroller.extend_to(depth);
    poll_exchange(depth);
    for (const ir::NodeRef inv : invariants) {
      unroller.assert_at(inv, depth);
    }

    // Query: can the property fail exactly at `depth`?
    const sat::Lit bad = ~unroller.lit_at(property, depth);
    const sat::LBool answer = solver.solve({bad});

    if (answer == sat::LBool::True) {
      result.verdict = Verdict::Falsified;
      result.depth = depth;
      result.cex = unroller.extract_trace(depth + 1);
      break;
    }
    if (answer == sat::LBool::Undef) {  // budget exhausted
      result.verdict = Verdict::Unknown;
      result.depth = depth;
      break;
    }
    // UNSAT at this depth: the property holds at `depth`; pin it down so
    // later frames benefit and move on.
    solver.add_clause(~bad);
    result.depth = depth;
  }

  result.stats.absorb(solver.stats());
  result.stats.seconds = watch.seconds();
  return result;
}

}  // namespace genfv::mc
