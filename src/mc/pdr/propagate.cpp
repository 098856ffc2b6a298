#include "mc/pdr/propagate.hpp"

namespace genfv::mc::pdr {

PropagateOutcome propagate_all(QueryContext& ctx) {
  const FrameDb& db = ctx.frames();
  const std::size_t frontier = db.frontier();
  for (std::size_t i = 1; i < frontier; ++i) {
    if (ctx.stopped()) return PropagateOutcome::Budget;
    const std::vector<Cube> snapshot = db.cubes_at(i);
    for (const Cube& cube : snapshot) {
      if (db.is_blocked(cube, i + 1)) continue;
      const sat::LBool answer =
          ctx.relative_query(cube, i + 1, /*assume_not_cube=*/false, nullptr);
      if (answer == sat::LBool::Undef) return PropagateOutcome::Budget;
      if (answer == sat::LBool::False) ctx.add_blocked(cube, i + 1);
    }
  }
  return PropagateOutcome::Done;
}

namespace {

/// Shrink `cubes` to the greatest subset S whose clauses are mutually
/// consecutive relative to the frame that `frame` activates:
/// F ∧ S ∧ T ⊨ S′. Each round mints one pass gate, asserts the surviving
/// clauses behind it at frame 0, queries every primed cube and drops the
/// first one with a counterexample to consecution; the gate is retired
/// before the next round. Returns false when the conflict budget or stop
/// flag interrupted (callers give up on the whole run, as elsewhere).
bool consecutive_subset(QueryContext& ctx, const std::vector<sat::Lit>& frame,
                        std::vector<Cube>& cubes) {
  while (!cubes.empty()) {
    if (ctx.stopped()) return false;
    // Every recorded fact is already in the solver, so the pass gate and
    // the clauses below are its last facts and retiring the gate leaves no
    // live clause behind.
    const sat::Lit gate = ctx.new_gate();
    for (const Cube& c : cubes) ctx.add_cube_clause(gate, c, 0);
    std::ptrdiff_t failed = -1;
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      std::vector<sat::Lit> assumptions = frame;
      assumptions.push_back(gate);
      for (const StateLit& l : cubes[i]) assumptions.push_back(ctx.cube_lit(1, l));
      const sat::LBool answer = ctx.solver().solve(assumptions);
      if (answer == sat::LBool::Undef) {
        ctx.retire_gate(gate);
        return false;
      }
      if (answer == sat::LBool::True) {
        failed = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    ctx.retire_gate(gate);  // retire this pass's gate
    if (failed < 0) break;  // fixpoint: every survivor is consecutive
    cubes.erase(cubes.begin() + failed);
  }
  return true;
}

}  // namespace

bool graduate_candidates(QueryContext& ctx, std::vector<Cube>& candidates,
                         std::size_t& graduated) {
  if (candidates.empty()) return true;
  const std::size_t level = ctx.frames().frontier();
  std::vector<Cube> survivors = candidates;
  if (!consecutive_subset(ctx, ctx.assumptions(level - 1), survivors)) return false;
  for (const Cube& c : survivors) {
    if (!ctx.frames().is_blocked(c, level)) ctx.add_blocked(c, level);
    std::erase(candidates, c);
  }
  graduated += survivors.size();
  return true;
}

bool push_to_infinity(QueryContext& ctx) {
  const std::size_t frontier = ctx.frames().frontier();
  std::vector<Cube> cubes = ctx.frames().cubes_at(frontier);
  if (!consecutive_subset(ctx, {}, cubes)) return false;
  for (const Cube& c : cubes) ctx.graduate(c, frontier);
  return true;
}

}  // namespace genfv::mc::pdr
