#include "mc/pdr/propagate.hpp"

namespace genfv::mc::pdr {

PropagateOutcome propagate_all(QueryContext& ctx, FrameDb& db) {
  const std::size_t frontier = db.frontier();
  for (std::size_t i = 1; i < frontier; ++i) {
    if (ctx.stopped()) return PropagateOutcome::Budget;
    const std::vector<Cube> snapshot = db.cubes_at(i);
    for (const Cube& cube : snapshot) {
      if (db.is_blocked(cube, i + 1)) continue;
      const sat::LBool answer =
          ctx.relative_query(cube, i + 1, /*assume_not_cube=*/false, nullptr);
      if (answer == sat::LBool::Undef) return PropagateOutcome::Budget;
      if (answer == sat::LBool::False) db.add_blocked(cube, i + 1);
    }
  }
  return PropagateOutcome::Done;
}

bool may_proof_pass(QueryContext& ctx, FrameDb& db, const EngineOptions& options) {
  if (!options.pdr_seed_candidates) return true;
  std::vector<FrameDb::MayClause> cand = db.may_clauses();
  if (cand.empty()) return true;

  // Initiation: a candidate clause violated by an initial state is no
  // invariant — retract it for good (the FrameDb remembers its key, so a
  // re-publish cannot re-seed it). The check is immutable, so its outcome
  // is cached per candidate (`init_ok`) and never re-queried.
  std::vector<FrameDb::MayClause> live;
  live.reserve(cand.size());
  for (FrameDb::MayClause& m : cand) {
    if (m.init_ok) {
      live.push_back(std::move(m));
      continue;
    }
    if (ctx.stopped()) return false;
    const sat::LBool in_init = ctx.intersects_init(m.cube);
    if (in_init == sat::LBool::Undef) return false;
    if (in_init == sat::LBool::True) {
      db.retract_may(m.id);
    } else {
      db.mark_may_init_ok(m.id);
      live.push_back(std::move(m));
    }
  }

  // Greatest fixpoint of mutual may-induction at the frontier (see the
  // header for the soundness argument).
  const std::size_t level = db.frontier();
  while (!live.empty()) {
    if (ctx.stopped()) return false;
    std::vector<std::size_t> ids;
    ids.reserve(live.size());
    for (const FrameDb::MayClause& m : live) ids.push_back(m.id);
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

  for (const FrameDb::MayClause& m : live) {
    // Graduation order matters: remove the may entry first so the frame
    // clause that replaces it is never double-counted by is_blocked.
    db.graduate_may(m.id);
    if (!db.is_blocked(m.cube, level)) db.add_blocked(m.cube, level);
  }
  return true;
}

bool push_to_infinity(QueryContext& ctx, FrameDb& db) {
  std::vector<Cube> cand = db.cubes_at(db.frontier());
  while (!cand.empty()) {
    if (ctx.stopped()) return false;
    // Mirror any pending events first: the pass gate and candidate clauses
    // below must be the *last* facts in the solver so retiring the gate
    // leaves no live clause behind.
    ctx.sync();
    const sat::Lit gate = ctx.new_gate();
    for (const Cube& c : cand) {
      std::vector<sat::Lit> clause{~gate};
      for (const StateLit& l : c) clause.push_back(~ctx.cube_lit(0, l));
      ctx.solver().add_clause(std::move(clause));
    }
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
  const std::size_t frontier = db.frontier();
  for (const Cube& c : cand) db.graduate(c, frontier);
  return true;
}

}  // namespace genfv::mc::pdr
