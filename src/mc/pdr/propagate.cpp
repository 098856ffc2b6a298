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

bool may_proof_pass(QueryContext& ctx) {
  std::vector<QueryContext::MayClause> cand = ctx.may_clauses();
  if (cand.empty()) return true;

  // Initiation: a candidate clause violated by an initial state is no
  // invariant — retract it for good (the context remembers every seeded
  // cube, so a re-publish cannot re-seed it). The check is immutable, so its
  // outcome is cached per candidate (`init_ok`) and never re-queried.
  std::vector<QueryContext::MayClause> live;
  live.reserve(cand.size());
  for (QueryContext::MayClause& m : cand) {
    if (m.init_ok) {
      live.push_back(std::move(m));
      continue;
    }
    if (ctx.stopped()) return false;
    const sat::LBool in_init = ctx.intersects_init(m.cube);
    if (in_init == sat::LBool::Undef) return false;
    if (in_init == sat::LBool::True) {
      ctx.retract_may(m.id);
    } else {
      ctx.mark_may_init_ok(m.id);
      live.push_back(std::move(m));
    }
  }

  // Greatest fixpoint of mutual may-induction at the frontier (see the
  // header for the soundness argument).
  const std::size_t level = ctx.frames().frontier();
  while (!live.empty()) {
    if (ctx.stopped()) return false;
    std::vector<std::size_t> ids;
    ids.reserve(live.size());
    for (const QueryContext::MayClause& m : live) ids.push_back(m.id);
    std::ptrdiff_t failed = -1;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const sat::LBool answer = ctx.may_consecution_query(ids, live[i].cube, level);
      if (answer == sat::LBool::Undef) return false;
      if (answer == sat::LBool::True) {
        failed = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    if (failed < 0) break;  // fixpoint: every survivor is consecutive
    live.erase(live.begin() + failed);
  }

  for (const QueryContext::MayClause& m : live) {
    // Graduation order matters: remove the may entry first so the frame
    // clause that replaces it is never double-counted by is_blocked.
    ctx.graduate_may(m.id);
    if (!ctx.frames().is_blocked(m.cube, level)) ctx.add_blocked(m.cube, level);
  }
  return true;
}

bool push_to_infinity(QueryContext& ctx) {
  const std::size_t frontier = ctx.frames().frontier();
  std::vector<Cube> cand = ctx.frames().cubes_at(frontier);
  while (!cand.empty()) {
    if (ctx.stopped()) return false;
    // Every recorded fact is already in the solver, so the pass gate and
    // candidate clauses below are its last facts and retiring the gate
    // leaves no live clause behind.
    const sat::Lit gate = ctx.new_gate();
    for (const Cube& c : cand) ctx.add_cube_clause(gate, c, 0);
    std::ptrdiff_t failed = -1;
    for (std::size_t i = 0; i < cand.size(); ++i) {
      std::vector<sat::Lit> assumptions{gate};
      for (const StateLit& l : cand[i]) assumptions.push_back(ctx.cube_lit(1, l));
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
    if (failed < 0) break;  // fixpoint: every candidate is consecutive
    cand.erase(cand.begin() + failed);
  }
  for (const Cube& c : cand) ctx.graduate(c, frontier);
  return true;
}

}  // namespace genfv::mc::pdr
