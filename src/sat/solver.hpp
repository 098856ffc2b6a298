#pragma once

/// \file solver.hpp
/// A from-scratch CDCL SAT solver in the MiniSat lineage — the one SAT
/// solver every engine, the bit-blaster and `genfv_cli sat` solve through.
///
/// Features:
///  * two-watched-literal unit propagation with blocker literals,
///  * first-UIP conflict analysis with (local) clause minimization,
///  * VSIDS variable activities with phase saving,
///  * Luby restarts,
///  * LBD-tiered learnt-clause database reduction (glue clauses are
///    immortal, the rest ranked by LBD then activity, found through an
///    index of the deletable learnts),
///  * clauses stored as one allocation each: a small header followed
///    inline by the literals,
///  * level-0 collection at the start of solve(): clauses satisfied by a
///    level-0 literal (e.g. retired activation gates) leave the watch lists,
///    amortized against the propagations done since the last collection,
///  * inprocessing at the start of solve() (sat/inprocess.hpp): top-level
///    simplification, clause subsumption + self-subsuming strengthening,
///    bounded variable elimination and vivification, run once a solver has
///    both answered kInprocessMinSolves queries and done a conflict
///    interval's worth of search since its last session, and cooperative
///    with incremental use through frozen variables and restore-on-import,
///  * incremental solving under assumptions with final-conflict
///    (unsat-core-over-assumptions) extraction,
///  * optional conflict budget for best-effort queries,
///  * optional DRAT proof logging (sat/drat.hpp).
///
/// The model checker keeps one live `Solver` per unrolling and extends it
/// with new frames between `solve()` calls; clauses may be added whenever the
/// solver is at decision level 0 (which it always is between calls).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sat/heap.hpp"
#include "sat/types.hpp"

namespace genfv::sat {

class DratWriter;
class Inprocessor;

/// Aggregate search statistics, cumulative over a solver's lifetime.
struct SolverStats {
  std::uint64_t solves = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t reductions = 0;  // clause-database reductions run
  // Level-0 collection (collect_satisfied): runs, and the original plus
  // learnt clauses it removed.
  std::uint64_t collections = 0;
  std::uint64_t collected_clauses = 0;
  // Inprocessing (sessions at solve() entry; see sat/inprocess.hpp).
  std::uint64_t inprocessings = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t eliminated_vars = 0;
  std::uint64_t restored_vars = 0;
  std::uint64_t vivified_clauses = 0;
};

class Solver {
 public:
  Solver();
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Create a fresh variable and return it. `decision` controls whether the
  /// search may branch on it (auxiliary Tseitin variables still may).
  Var new_var(bool decision = true);

  int num_vars() const noexcept { return static_cast<int>(assigns_.size()); }
  std::size_t num_clauses() const noexcept { return clauses_.size(); }
  std::size_t num_learnts() const noexcept { return learnts_.size() - learnt_holes_; }

  /// Add a clause (consumed). Returns false iff the formula is now known
  /// UNSAT at level 0. Must be called at decision level 0. A clause
  /// mentioning an eliminated variable first restores the whole elimination
  /// stack (restore-on-import).
  bool add_clause(std::vector<Lit> lits);
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

  /// Solve under `assumptions`. Returns True (SAT: model available),
  /// False (UNSAT: failed-assumption core available), or Undef when the
  /// conflict budget ran out. Assumption variables are implicitly frozen
  /// for the rest of the solver's life.
  LBool solve(const std::vector<Lit>& assumptions = {});

  /// Value of `p` in the most recent satisfying model. Models cover
  /// eliminated variables (extended through the elimination stack).
  LBool model_value(Lit p) const noexcept;
  LBool model_value(Var v) const noexcept;

  /// After an UNSAT answer: a subset of the assumptions whose conjunction is
  /// inconsistent with the clause database.
  const std::vector<Lit>& failed_assumptions() const noexcept { return core_; }

  /// Limit the next solve() calls to roughly `budget` conflicts; -1 removes
  /// the limit.
  void set_conflict_budget(std::int64_t budget) noexcept {
    conflict_budget_ = budget;
  }

  /// Cooperative cancellation: while `*stop` reads true, solve() abandons the
  /// search and returns Undef (indistinguishable from budget exhaustion, and
  /// handled identically by every engine). The solver only ever *reads* the
  /// flag, with relaxed ordering, so any number of solvers may share one flag
  /// and any thread may set it. The pointee must outlive the solver or be
  /// detached with `set_stop_flag(nullptr)` first; nullptr (the default)
  /// disables the check.
  void set_stop_flag(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  /// True iff the clause database has been proven UNSAT outright.
  bool inconsistent() const noexcept { return !ok_; }

  const SolverStats& stats() const noexcept { return stats_; }

  /// Current assignment of `p` (partial during search; level-0 facts between
  /// solves). Exposed for the bit-blaster's constant-literal handling.
  LBool value(Lit p) const noexcept {
    return xor_sign(assigns_[static_cast<std::size_t>(var(p))], sign(p));
  }
  LBool value(Var v) const noexcept {
    return assigns_[static_cast<std::size_t>(v)];
  }

  /// Pin `v` against variable elimination. Freezing is permanent and has no
  /// effect on the search itself.
  void freeze(Var v) { frozen_[static_cast<std::size_t>(v)] = 1; }
  bool is_eliminated(Var v) const noexcept {
    return eliminated_[static_cast<std::size_t>(v)] != 0;
  }

  /// Begin DRAT logging to `<path_base>.cnf` / `<path_base>.drat`. Must be
  /// called on a pristine solver (no variables or clauses yet).
  bool start_proof(const std::string& path_base);

  /// Literal constrained true in every model (lazily created). Lets callers
  /// encode constants without special cases.
  Lit true_lit();

  /// Run one inprocessing session immediately (level 0, between solves).
  /// Exposed for presimplification (`genfv_cli sat`) and the soundness
  /// fuzz tests; the scheduled sessions at solve() entry use the same path,
  /// and either kind restarts both session counters.
  void simplify_now();

 private:
  friend class Inprocessor;

  LBool solve_core(const std::vector<Lit>& assumptions);

  /// A clause is one allocation: this header, then its literals inline
  /// (`make_clause`). The literal count never grows after creation, so
  /// every rewrite (strengthening, vivification, level-0 stripping) fits in
  /// place.
  struct Clause {
    float activity = 0.0f;
    std::uint32_t lbd = 0;  // glue: distinct decision levels at learn time,
                            // aged down when the clause re-enters analysis
    std::uint64_t sig = 0;  // inprocessing scratch: variable signature
    std::uint32_t count = 0;  // literals stored after the header
    bool learnt = false;
    bool dead = false;  // detached, awaiting sweep / compaction

    std::size_t size() const noexcept { return count; }
    Lit* begin() noexcept { return reinterpret_cast<Lit*>(this + 1); }
    Lit* end() noexcept { return begin() + count; }
    const Lit* begin() const noexcept { return reinterpret_cast<const Lit*>(this + 1); }
    const Lit* end() const noexcept { return begin() + count; }
    Lit operator[](std::size_t i) const noexcept { return begin()[i]; }
    std::span<const Lit> lits() const noexcept { return {begin(), count}; }
    /// Overwrite the literals with `lits`, which must be no longer.
    void assign(std::span<const Lit> lits);
  };
  struct ClauseDeleter {
    void operator()(Clause* c) const noexcept;
  };
  using ClausePtr = std::unique_ptr<Clause, ClauseDeleter>;
  static ClausePtr make_clause(std::span<const Lit> lits, bool learnt);

  struct Watcher {
    Clause* clause = nullptr;
    Lit blocker = kUndefLit;
  };

  /// One variable-elimination record: the original clauses that mentioned
  /// `v`, kept for restore-on-import and model extension.
  struct ElimEntry {
    Var v = kUndefVar;
    bool was_decision = false;
    std::vector<std::vector<Lit>> clauses;
  };

  /// DRAT disposition of a clause entering the database.
  enum class ClauseOrigin {
    kInput,    // caller-added: logged to the .cnf
    kDerived,  // inprocessing resolvent/strengthening: logged as a proof add
    kRestored  // re-import of an eliminated var's clause: already on file
  };

  // --- propagation ---------------------------------------------------------
  Clause* propagate();
  void attach_clause(Clause* c);
  void detach_clause(Clause* c);
  void unchecked_enqueue(Lit p, Clause* from = nullptr);

  // --- conflict analysis ---------------------------------------------------
  void analyze(Clause* conflict, std::vector<Lit>& out_learnt, int& out_btlevel);
  bool literal_redundant(Lit p) const;
  void analyze_final(Lit failed_assumption);
  std::uint32_t compute_lbd(std::span<const Lit> lits);

  // --- search --------------------------------------------------------------
  LBool search(int conflicts_before_restart, const std::vector<Lit>& assumptions);
  Lit pick_branch_lit();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }
  void cancel_until(int level);

  // --- activities / clause DB ----------------------------------------------
  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ *= (1.0 / kVarDecay); }
  void cla_bump_activity(Clause& c);
  void cla_decay_activity() { cla_inc_ *= (1.0f / kClaDecay); }
  void reduce_db();
  bool locked(const Clause* c) const noexcept;
  /// Reduction candidates: learnts of more than two literals above the core
  /// glue. Both only ever shrink, so a clause that leaves never returns.
  static bool reducible(const Clause& c) noexcept {
    return c.size() > 2 && c.lbd > kCoreLbd;
  }
  /// Squeeze the null (freed) and dead slots out of `learnts_`, freeing the
  /// dead clauses and renumbering `reducible_`; learn order is kept.
  void compact_learnts();

  // --- level-0 collection ---------------------------------------------------
  bool satisfied(const Clause& c) const noexcept;
  /// Remove every original and learnt clause a level-0 literal satisfies
  /// (level 0, propagation saturated). Watch lists keep the order of their
  /// surviving watchers, so the search that follows is the one it would
  /// have been with the clauses still attached.
  void collect_satisfied();
  /// Level-0 assignments are permanent facts; their reason pointers are never
  /// dereferenced by analysis (which skips level 0) but would dangle once a
  /// collection or an inprocessing session frees clauses. Null them.
  void clear_level0_reasons();
  /// The database size the reduction bound and the session interval read:
  /// originals collected since the last session still count, because the
  /// session would have removed them itself.
  std::size_t scheduled_clauses() const noexcept {
    return clauses_.size() + collected_originals_;
  }

  // --- inprocessing support -------------------------------------------------
  /// Shared clause-entry path; returns the attached clause (nullptr when the
  /// clause was absorbed: satisfied, tautological, unit or empty).
  Clause* add_clause_impl(std::vector<Lit> lits, ClauseOrigin origin);
  /// Re-add every eliminated variable's clauses (reverse stack order) so a
  /// clause or assumption may mention them again.
  void restore_eliminated();
  /// Extend `model_` over eliminated variables (reverse stack order).
  void extend_model();
  /// Mark the database UNSAT and log the empty clause (once).
  void mark_unsat();

  int level_of(Var v) const noexcept { return level_[static_cast<std::size_t>(v)]; }
  Clause* reason_of(Var v) const noexcept { return reason_[static_cast<std::size_t>(v)]; }

  static constexpr double kVarDecay = 0.95;
  static constexpr float kClaDecay = 0.999f;
  /// Floor on the conflicts between inprocessing sessions, checked at
  /// solve() entry; the effective interval is max(this, clauses/4) so
  /// session cost stays proportional to the solving done between sessions.
  /// Tuned on the shootout's PDR rows, whose sessions fire at entry: 1000
  /// barely fires inside PDR's short budgeted queries, 250 cuts fifo_ctrl
  /// conflicts ~35% and dual_accumulator ~98% against plain CDCL without
  /// sessions; 150 starts to thrash, and a shallower size scaling
  /// (clauses/8) fires zero-payoff sessions on the big low-conflict
  /// BMC-style CNFs (sdiv_props).
  static constexpr std::uint64_t kInprocessInterval = 250;
  /// Fewest solve() calls (the current one included) between sessions. A
  /// session is paid back only over the queries that reuse the simplified
  /// database: PDR's frame solvers answer thousands, while k-induction's
  /// solvers (at most 8 calls at the CLI default) and lemma proofs never
  /// recover its cost. On the cli_flows workload their sessions took about a
  /// quarter of the SAT time, and the same proofs took 124,688 conflicts
  /// without them against 139,067 with them. A proof-cache recertification
  /// asks one query per stored clause, so an entry of 16 or more clauses
  /// can reach sessions too: dual_accumulator's 64-clause hit (66 calls)
  /// runs two, which save 19 conflicts (773 -> 754) and cost about 1.3 ms
  /// of a 6 ms recertification; secded84's and hamming74's hits (51 and 44
  /// calls) do too little conflict work to start one.
  static constexpr std::uint64_t kInprocessMinSolves = 16;
  /// Learnt clauses with LBD at or below this are never deleted.
  static constexpr std::uint32_t kCoreLbd = 2;

  bool ok_ = true;

  std::vector<ClausePtr> clauses_;
  /// Learnt clauses in learn order. reduce_db frees a deleted clause at once
  /// and leaves its slot null; compact_learnts drops the holes lazily.
  std::vector<ClausePtr> learnts_;
  std::size_t learnt_holes_ = 0;
  /// The reduction index: positions in `learnts_` of the reducible learnts,
  /// ascending (so in learn order). Entries always name non-null slots.
  std::vector<std::uint32_t> reducible_;
  std::vector<Clause*> reduce_order_;  // reduce_db scratch
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal index

  std::vector<LBool> assigns_;
  std::vector<char> polarity_;   // saved phase (true = assign negative first)
  std::vector<char> decision_;
  std::vector<char> frozen_;
  std::vector<char> eliminated_;
  std::vector<Clause*> reason_;
  std::vector<int> level_;

  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  float cla_inc_ = 1.0f;
  VarOrderHeap order_heap_;

  std::vector<char> seen_;
  std::vector<Lit> analyze_toclear_;
  std::vector<std::uint64_t> lbd_seen_;  // per-level stamp for compute_lbd
  std::uint64_t lbd_stamp_ = 0;

  std::vector<LBool> model_;
  std::vector<Lit> core_;

  std::vector<ElimEntry> elim_stack_;

  bool interrupted() const noexcept {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  double max_learnts_ = 0.0;
  std::int64_t conflict_budget_ = -1;
  const std::atomic<bool>* stop_ = nullptr;
  std::uint64_t conflicts_at_solve_start_ = 0;

  std::uint64_t last_inprocess_conflicts_ = 0;
  std::uint64_t last_inprocess_solves_ = 0;
  // Level-0 collection trigger (MiniSat's simpDB_assigns / simpDB_props):
  // collect once the level-0 trail has grown and the propagations since the
  // last collection reach the database size.
  std::size_t collect_assigns_ = 0;
  std::uint64_t collect_props_ = 0;
  std::size_t collected_originals_ = 0;  // since the last session
  std::size_t vivify_cursor_ = 0;  // round-robin start for vivification

  std::unique_ptr<DratWriter> drat_;
  bool empty_clause_logged_ = false;
  Var true_var_ = kUndefVar;

  SolverStats stats_;
};

}  // namespace genfv::sat
