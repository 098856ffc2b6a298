#pragma once

/// \file context.hpp
/// The PDR query context: one transition solver + one initiation solver,
/// their unrollers, the activation-literal ladder, the run's `FrameDb` and
/// its candidate ("may") clauses.
///
/// The context is the only place solver literals exist; everything above it
/// (blocking, generalization, propagation, orchestration) trades in
/// manager-neutral cubes. One run owns one context and drives it on the
/// calling thread; it is not internally synchronized.
///
/// Frame facts: the context is the only writer of its `FrameDb`, and each
/// mutator records a fact and asserts it in the same call — push_level
/// mints the level's activation literal, add_blocked asserts the clause
/// gated by its level's literal, graduate asserts the F_∞ clause ungated at
/// both solver frames. The solver therefore always holds every recorded
/// fact, in the order the algorithm recorded them, which keeps its variable
/// numbering (and so its SAT trajectory) deterministic.
///
/// Gate hygiene: finished blocking queries retire their activation gates as
/// permanently-satisfied unit clauses; the context counts them for
/// EngineStats::retired_gates. The gated query clauses are then satisfied at
/// level 0 for good, and the solver's level-0 collection
/// (sat::Solver::collect_satisfied) removes them from the watch lists at the
/// start of a later solve(), so they stop costing propagation.
///
/// Candidate ("may") clauses: seed_may asserts the clause at frame 0 behind
/// a dedicated per-candidate gate; retract_may, strike_may and graduate_may
/// retire that gate. Queries assume the live gates and apply the
/// clean-rerun discipline (see relative_query), so no answer that leaves
/// this context ever depends on an unproven candidate.

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"
#include "mc/engine.hpp"
#include "mc/unroller.hpp"
#include "sat/solver.hpp"

namespace genfv::mc::pdr {

/// Spurious-blocked offenses before strike_may retracts a candidate: one
/// collision with a rare backward-reachable state is tolerated, a repeat
/// offender is dropped.
inline constexpr std::size_t kCandidateStrikes = 2;

class QueryContext {
 public:
  /// One live candidate ("may") clause: the cube it blocks, its stable id,
  /// and the dedicated gate its clause sits behind. `init_ok` caches the
  /// outcome of the (immutable) initiation check so the may-proof pass runs
  /// it once per candidate, not once per frame iteration.
  struct MayClause {
    Cube cube;
    std::size_t id = 0;
    sat::Lit gate = sat::kUndefLit;
    bool init_ok = false;
    /// Spurious-blocked offenses so far (see strike_may).
    std::size_t strikes = 0;
  };

  /// `ts`, `property` and `options.lemmas` must all live in the same
  /// NodeManager and outlive the context; so must `options`. Both
  /// solvers take the options' budget and stop flag; with `drat_path` set,
  /// the transition solver logs DRAT to `<drat_path>` and the initiation
  /// solver to `<drat_path>-p1`.
  QueryContext(const ir::TransitionSystem& ts, ir::NodeRef property,
               const EngineOptions& options);

  const ir::TransitionSystem& system() const noexcept { return ts_; }
  sat::Solver& solver() { return solver_; }
  sat::Solver& init_solver() { return init_solver_; }
  Unroller& unroller() { return *unr_; }
  Unroller& init_unroller() { return *init_unr_; }

  /// Property literal at frame 0 of the init-constrained solver.
  sat::Lit init_prop_lit() const noexcept { return init_prop_; }

  /// True once cooperative cancellation has been requested.
  bool stopped() const noexcept;

  // --- frame facts ----------------------------------------------------------
  // Each mutator updates the FrameDb bookkeeping and the solver together.

  /// The frame database (read-only; mutate through the calls below).
  const FrameDb& frames() const noexcept { return db_; }

  /// Open a new frontier level and mint its activation literal.
  void push_level();

  /// FrameDb::add_blocked, plus the clause ¬cube gated by `level`'s literal.
  void add_blocked(const Cube& cube, std::size_t level);

  /// FrameDb::graduate, plus the clause ¬cube ungated at both solver frames.
  void graduate(const Cube& cube, std::size_t level);

  // --- candidate ("may") clauses --------------------------------------------
  // Unproven candidate clauses assumed in queries behind per-candidate
  // activation gates. Never exported, never part of F_∞ or the delta levels;
  // graduation re-enters through add_blocked on a *clean* proof. Duplicate
  // cubes are rejected, including cubes that were seeded before and since
  // retracted — a refuted candidate stays refuted.

  /// Seed `cube` as a candidate. Returns its id, or nullopt for duplicates.
  std::optional<std::size_t> seed_may(const Cube& cube);

  /// Retract candidate `id` outright (initiation refutation — an immutable
  /// fact). Returns false when already retracted/graduated (idempotent).
  bool retract_may(std::size_t id);

  /// Record one spurious-blocked offense against candidate `id` and retract
  /// it once its strikes reach kCandidateStrikes. A sub-limit strike leaves
  /// the gate live — a candidate that collides once with a rare
  /// backward-reachable state keeps helping until it proves itself a repeat
  /// offender. Returns true iff this strike retracted the candidate.
  bool strike_may(std::size_t id);

  /// Remove candidate `id` because a clean may-proof succeeded — the caller
  /// follows up with add_blocked for the cube. Returns false when already
  /// gone.
  bool graduate_may(std::size_t id);

  /// Record that candidate `id` passed the initiation check (SAT(init ∧
  /// cube) = False — a fact that can never change).
  void mark_may_init_ok(std::size_t id);

  /// Live (seeded, not yet retracted/graduated) candidates, in id order.
  const std::vector<MayClause>& may_clauses() const noexcept { return may_; }

  /// Lifetime counters for EngineStats.
  std::size_t may_seeded() const noexcept { return may_seen_.size(); }
  std::size_t may_graduated() const noexcept { return may_graduated_; }
  std::size_t may_retracted() const noexcept { return may_retracted_; }

  // --- queries ---------------------------------------------------------------

  /// Solver literal that is true iff cube literal `l` holds at `frame`.
  sat::Lit cube_lit(std::size_t frame, const StateLit& l);

  /// Assumptions activating F_level: the activation literals of levels
  /// ≥ level.
  std::vector<sat::Lit> assumptions(std::size_t level) const;

  /// SAT(F_frontier ∧ ¬P)? — find a frontier state violating the property.
  /// Live may clauses are assumed (and fall back cleanly, see solve_frames).
  sat::LBool solve_frontier_bad(std::size_t frontier);

  /// Fill `out` with the full frame-0 state cube and the concrete
  /// state/input values of the current model of the transition solver.
  void extract_state(Obligation& out);

  /// SAT(init ∧ cube)? — does the cube contain an initial state.
  /// Never assumes may clauses: initiation checks must be exact.
  sat::LBool intersects_init(const Cube& cube);

  /// Undef counts as "may intersect" — conservative for generalization,
  /// which must never block a potentially-initial state.
  bool may_intersect_init(const Cube& cube);

  /// SAT(F_{level-1} ∧ [¬cube] ∧ T ∧ cube')? On UNSAT, `core_out` (if given)
  /// receives the failed assumptions; intersect with the primed cube
  /// literals to find which were needed.
  ///
  /// Candidate seeding: live may clauses are additionally assumed. A SAT
  /// answer is unaffected (the model is a real transition); an UNSAT answer
  /// is accepted only when no may gate appears in the failed-assumption
  /// core — otherwise the query re-runs *clean* (without candidates), and
  /// if the clean run is SAT, every candidate the found state violates is
  /// struck (it manufactured a spurious "blocked" answer). Returned
  /// answers and cores are therefore always candidate-free facts.
  sat::LBool relative_query(const Cube& cube, std::size_t level, bool assume_not_cube,
                            std::vector<sat::Lit>* core_out);

  /// SAT(F_{level-1} ∧ survivors ∧ T ∧ cube')? — the may-proof consecution
  /// check: assumes exactly the gates of `survivor_ids` (no other
  /// candidates), so an UNSAT certifies consecution relative to the named
  /// set only. Requires seeded candidates; `cube` is one survivor's cube.
  sat::LBool may_consecution_query(const std::vector<std::size_t>& survivor_ids,
                                   const Cube& cube, std::size_t level);

  /// Fresh one-shot activation gate for a temporary clause group (e.g. one
  /// F_∞ fixpoint pass). Retire it with retire_gate once the group is dead.
  sat::Lit new_gate();

  /// Add the clause ¬cube over solver frame `frame`, behind `gate` unless
  /// it is kUndefLit.
  void add_cube_clause(sat::Lit gate, const Cube& cube, std::size_t frame);

  /// Permanently satisfy every clause gated by `gate` and count the litter.
  void retire_gate(sat::Lit gate);

  /// Lifetime gate litter — feeds EngineStats.
  std::size_t retired_gates() const noexcept { return retired_gates_; }

 private:
  /// Encode the base facts into the transition solver: frames 0/1, the
  /// gated init equalities, the seeded lemmas and the property literal.
  void bootstrap();

  std::vector<MayClause>::iterator find_may(std::size_t id);

  /// Shared body of retract_may/strike_may/graduate_may: retire candidate
  /// `id`'s gate, erase it and bump `counter`. False when already gone.
  bool remove_may(std::size_t id, std::size_t* counter);

  /// Solve with `assumptions` plus every live may gate, applying the
  /// clean-rerun/strike discipline documented on relative_query. The
  /// degenerate no-candidates path is exactly a plain solve (bit-for-bit
  /// with the pre-seeding engine).
  sat::LBool solve_frames(std::vector<sat::Lit> assumptions,
                          std::vector<sat::Lit>* core_out);

  /// After a clean SAT that a may-assumed query had blocked: strike every
  /// live candidate whose cube the model state satisfies (those gates are
  /// what excluded the state).
  void retract_violated_candidates();

  const ir::TransitionSystem& ts_;
  const EngineOptions& options_;
  ir::NodeRef property_;
  FrameDb db_;

  sat::Solver solver_;
  sat::Solver init_solver_;
  std::unique_ptr<Unroller> unr_;
  std::unique_ptr<Unroller> init_unr_;
  /// activations_[0] gates the init-value equalities; activations_[k] gates
  /// the clauses blocked at delta level k.
  std::vector<sat::Lit> activations_;
  sat::Lit prop0_ = sat::kUndefLit;
  sat::Lit init_prop_ = sat::kUndefLit;

  std::vector<MayClause> may_;  ///< live candidates, ascending id
  std::set<Cube> may_seen_;     ///< every cube ever seeded
  std::size_t may_graduated_ = 0;
  std::size_t may_retracted_ = 0;

  std::size_t retired_gates_ = 0;
};

}  // namespace genfv::mc::pdr
