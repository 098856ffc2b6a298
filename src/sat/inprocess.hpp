#pragma once

/// \file inprocess.hpp
/// Inprocessing for the in-tree CDCL core: formula simplification run at
/// the start of `Solver::solve` on solvers that answer many queries, on a
/// conflict-count cadence.
///
/// One session runs, in order:
///  1. top-level simplification — satisfied clauses are removed and
///     level-0-false literals stripped from the originals (between
///     sessions, `Solver::collect_satisfied` removes satisfied clauses at
///     the start of solve() on its own schedule);
///  2. forward subsumption + self-subsuming strengthening over
///     variable-indexed occurrence lists with signature prefiltering
///     (originals subsume/strengthen both originals and learnts);
///  3. bounded variable elimination (BVE): an unfrozen variable is
///     resolved away when its non-tautological resolvent set is no larger
///     than the clause set it replaces; the removed clauses are stored on
///     an elimination stack for model extension and restore-on-import;
///  4. vivification: original clauses are shortened by asserting their
///     literals' negations one by one and propagating — a conflict or an
///     implied literal proves a shorter clause (a rotating cursor spreads
///     the work across sessions).
///
/// Cooperation with incremental use: frozen variables (assumption
/// literals, activation gates, unroller outputs — anything the caller may
/// reference again) are never eliminated, and a clause or assumption that
/// does re-import an eliminated variable restores the whole elimination
/// stack first (`Solver::restore_eliminated`). Models are extended over
/// eliminated variables, so SAT answers stay complete.
///
/// Proof discipline (see sat/drat.hpp): every derived clause — resolvent,
/// strengthening, vivified shortening — is emitted as a DRAT add; deleted
/// *learnt* clauses get `d` lines; removed *original* clauses are left in
/// the checker's active set, which is why restore needs no proof traffic.
///
/// Every pass is budgeted, so a session's cost stays a small slice of the
/// search effort that scheduled it.

#include <cstdint>
#include <span>
#include <vector>

#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace genfv::sat {

class Inprocessor {
 public:
  explicit Inprocessor(Solver& s) : s_(s) {}

  /// Run one full session. Requires decision level 0; leaves the solver at
  /// decision level 0 with consistent watches (or marked UNSAT).
  void run();

 private:
  using Clause = Solver::Clause;

  static std::uint64_t signature(std::span<const Lit> lits) noexcept {
    std::uint64_t sig = 0;
    for (const Lit p : lits) sig |= std::uint64_t{1} << (var(p) & 63);
    return sig;
  }

  void top_level_simplify();
  void build_occurrence_lists();
  void subsume_all();
  void eliminate_vars();
  void vivify();
  void sweep();

  /// Detach + mark dead; learnt deletions are recorded in the proof.
  void kill(Clause* c);
  /// Remove `rem` from `d` (proof lines included); may derive a unit or
  /// mark the solver UNSAT.
  void strengthen(Clause* d, Lit rem);
  /// Subsumption relation: 0 = none, 1 = c subsumes d, else the literal of
  /// `d` whose removal c justifies (self-subsumption).
  enum class Subsumes : std::uint8_t { kNo, kSubsumes, kStrengthens };
  Subsumes subsumes(const Clause* c, const Clause* d, Lit* strengthen_out,
                    std::uint64_t* budget) const;

  /// Resolvent of `p` and `n` on `v`; false when tautological.
  bool resolve(const Clause* p, const Clause* n, Var v, std::vector<Lit>* out) const;

  Solver& s_;
  /// Variable-indexed occurrence lists over live clauses (originals and
  /// learnts). Entries go stale on strengthening/removal; every consumer
  /// re-checks membership and liveness.
  std::vector<std::vector<Clause*>> occ_;
};

}  // namespace genfv::sat
