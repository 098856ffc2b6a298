#pragma once

/// \file backend.hpp
/// The pluggable SAT-backend interface every engine solves through.
///
/// `sat::Backend` is the incremental-solver contract the model checker is
/// written against: variables, clauses, solve-under-assumptions with model
/// and failed-assumption-core extraction, conflict budgets and cooperative
/// cancellation — exactly the surface `sat::Solver` (the in-tree CDCL core,
/// the default backend) has always exposed. Extracting it lets an external
/// MiniSat/CaDiCaL-style solver be dropped in under every engine and
/// raced inside the portfolio without touching any engine code.
///
/// Optional capabilities degrade gracefully: a backend without inprocessing
/// ignores `set_inprocessing` and may treat `freeze` as a no-op; a backend
/// without proof support returns false from `start_proof` (callers then
/// simply get no certificate). The in-tree solver implements all of them.
///
/// Backends are constructed through `make_backend(name)`; `"internal"` is
/// the in-tree solver and the default everywhere.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace genfv::sat {

/// Aggregate search statistics, cumulative over a backend's lifetime.
struct SolverStats {
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t deleted_clauses = 0;
  // Inprocessing (sessions between restarts; see sat/inprocess.hpp).
  std::uint64_t inprocessings = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t eliminated_vars = 0;
  std::uint64_t restored_vars = 0;
  std::uint64_t vivified_clauses = 0;

  SolverStats& operator+=(const SolverStats& other) noexcept {
    solves += other.solves;
    decisions += other.decisions;
    propagations += other.propagations;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learnt_clauses += other.learnt_clauses;
    learnt_literals += other.learnt_literals;
    minimized_literals += other.minimized_literals;
    deleted_clauses += other.deleted_clauses;
    inprocessings += other.inprocessings;
    subsumed_clauses += other.subsumed_clauses;
    strengthened_clauses += other.strengthened_clauses;
    eliminated_vars += other.eliminated_vars;
    restored_vars += other.restored_vars;
    vivified_clauses += other.vivified_clauses;
    return *this;
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Create a fresh variable and return it. `decision` controls whether the
  /// search may branch on it.
  virtual Var new_var(bool decision = true) = 0;

  virtual int num_vars() const noexcept = 0;

  /// Add a clause (consumed). Returns false iff the formula is now known
  /// UNSAT at level 0. Must be called between solves.
  virtual bool add_clause(std::vector<Lit> lits) = 0;
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

  /// Solve under `assumptions`. Returns True (SAT: model available),
  /// False (UNSAT: failed-assumption core available), or Undef when the
  /// conflict budget / stop flag cut the search short.
  virtual LBool solve(const std::vector<Lit>& assumptions = {}) = 0;

  /// Value of `p` in the most recent satisfying model.
  virtual LBool model_value(Lit p) const noexcept = 0;
  virtual LBool model_value(Var v) const noexcept = 0;

  /// Current assignment (partial during search; level-0 facts between
  /// solves). Exposed for the bit-blaster's constant-literal handling.
  virtual LBool value(Lit p) const noexcept = 0;
  virtual LBool value(Var v) const noexcept = 0;

  /// After an UNSAT answer: a subset of the assumptions whose conjunction is
  /// inconsistent with the clause database.
  virtual const std::vector<Lit>& failed_assumptions() const noexcept = 0;

  /// Limit the next solve() calls to roughly `budget` conflicts; -1 removes
  /// the limit.
  virtual void set_conflict_budget(std::int64_t budget) noexcept = 0;

  /// Cooperative cancellation — see Solver::set_stop_flag for the contract.
  virtual void set_stop_flag(const std::atomic<bool>* stop) noexcept = 0;

  /// True iff the clause database has been proven UNSAT outright.
  virtual bool inconsistent() const noexcept = 0;

  virtual const SolverStats& stats() const noexcept = 0;

  /// Pin `v` against variable elimination: anything the caller will ever
  /// reference again (assumption literals, activation gates, unroller
  /// outputs) must be frozen. Backends without inprocessing may no-op.
  virtual void freeze(Var v) { (void)v; }
  void freeze_all(const std::vector<Lit>& lits) {
    for (const Lit p : lits) freeze(var(p));
  }

  /// Toggle inprocessing (and the LBD-tiered clause-DB policy). Off pins
  /// the backend to the plain-CDCL behavior; default is on. No-op for
  /// backends without inprocessing.
  virtual void set_inprocessing(bool on) { (void)on; }

  /// Begin DRAT proof logging to `<path_base>.cnf` / `<path_base>.drat`.
  /// Must be called before any variable or clause exists. Returns false if
  /// the backend cannot produce proofs or the files could not be opened.
  virtual bool start_proof(const std::string& path_base) {
    (void)path_base;
    return false;
  }

  /// Literal constrained true in every model (lazily created). Lets callers
  /// encode constants without special cases.
  Lit true_lit();

 private:
  Var true_var_ = kUndefVar;
};

/// Construct a backend by registry name. `"internal"` is the in-tree CDCL
/// solver. Throws util::UsageError for unknown names, listing the registry.
std::unique_ptr<Backend> make_backend(const std::string& name = "internal");

/// Names accepted by make_backend.
std::vector<std::string> backend_names();

}  // namespace genfv::sat
