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

  sat::Solver solver;
  solver.set_conflict_budget(options_.conflict_budget);
  solver.set_stop_flag(options_.stop.get());
  if (!options_.drat_path.empty()) solver.start_proof(options_.drat_path);
  Unroller unroller(ts_, solver, FrameZero::Init);

  for (std::size_t depth = 0; depth <= options_.max_steps; ++depth) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed)) {
      result.verdict = Verdict::Unknown;
      break;
    }
    unroller.extend_to(depth);
    // Seeded lemmas hold at every frame.
    for (const ir::NodeRef inv : options_.lemmas) {
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

  result.stats.absorb(solver);
  result.stats.seconds = watch.seconds();
  return result;
}

}  // namespace genfv::mc
