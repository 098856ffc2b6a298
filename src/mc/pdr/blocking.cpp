#include "mc/pdr/blocking.hpp"

#include "mc/pdr/generalize.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc::pdr {

BlockOutcome handle_obligations(QueryContext& ctx, ObligationQueue& queue,
                                std::size_t max_obligations, std::size_t* cex_index) {
  while (!queue.empty()) {
    if (queue.created() > max_obligations) return BlockOutcome::Budget;
    if (ctx.stopped()) return BlockOutcome::Budget;
    const std::size_t index = queue.pop();
    const Cube cube = queue.at(index).cube;  // copy: add() may reallocate
    const std::size_t level = queue.at(index).level;
    GENFV_ASSERT(level >= 1, "level-0 obligations are counterexamples at creation");

    GENFV_TRACE_SPAN("pdr", "block_one");
    // Already blocked: drop the obligation; its parent retry is queued
    // separately.
    if (ctx.frames().is_blocked(cube, level)) continue;

    std::vector<sat::Lit> core;
    const sat::LBool answer =
        ctx.relative_query(cube, level, /*assume_not_cube=*/true, &core);
    if (answer == sat::LBool::Undef) return BlockOutcome::Budget;

    if (answer == sat::LBool::False) {
      // Unreachable from F_{level-1}: learn a generalized blocking clause and
      // push it as far forward as it stays relatively inductive.
      const Cube g = generalize(ctx, cube, level, core);
      const std::size_t frontier = ctx.frames().frontier();
      std::size_t at = level;
      while (at < frontier &&
             ctx.relative_query(g, at + 1, /*assume_not_cube=*/true, nullptr) ==
                 sat::LBool::False) {
        ++at;
      }
      ctx.add_blocked(g, at);
      if (at < frontier) {
        queue.at(index).level = at + 1;
        queue.push(index);
      }
      continue;
    }

    // A predecessor inside F_{level-1} extends the chain towards init.
    Obligation pred;
    ctx.extract_state(pred);
    pred.level = level - 1;
    pred.parent = static_cast<std::ptrdiff_t>(index);
    const sat::LBool initial = ctx.intersects_init(pred.cube);
    if (initial == sat::LBool::Undef) return BlockOutcome::Budget;
    if (initial == sat::LBool::True) {
      // The predecessor pins every state bit, so it *is* an initial state:
      // a real CEX.
      *cex_index = queue.add(std::move(pred));
      return BlockOutcome::Counterexample;
    }
    const std::size_t pred_index = queue.add(std::move(pred));
    queue.push(pred_index);
    queue.push(index);  // retry once the predecessor is blocked
  }
  return BlockOutcome::Blocked;
}

BlockOutcome strengthen_frontier(QueryContext& ctx, ObligationQueue& queue,
                                 std::size_t max_obligations, std::size_t frontier,
                                 std::size_t* cex_index) {
  while (true) {
    if (ctx.stopped()) return BlockOutcome::Budget;
    const sat::LBool answer = ctx.solve_frontier_bad(frontier);
    if (answer == sat::LBool::Undef) return BlockOutcome::Budget;
    if (answer == sat::LBool::False) return BlockOutcome::Blocked;

    Obligation bad;
    ctx.extract_state(bad);
    bad.level = frontier;
    bad.parent = -1;
    const sat::LBool initial = ctx.intersects_init(bad.cube);
    if (initial == sat::LBool::Undef) return BlockOutcome::Budget;
    if (initial == sat::LBool::True) {
      // Defensive: with input-independent init values the 0-step check
      // already excludes initial bad states, so this cannot trigger; if it
      // ever does, the state is a chain of one.
      *cex_index = queue.add(std::move(bad));
      return BlockOutcome::Counterexample;
    }
    const std::size_t index = queue.add(std::move(bad));
    queue.push(index);

    const BlockOutcome outcome =
        handle_obligations(ctx, queue, max_obligations, cex_index);
    if (outcome != BlockOutcome::Blocked) return outcome;
  }
}

}  // namespace genfv::mc::pdr
