#pragma once

/// \file context.hpp
/// The PDR query context: one transition solver + one initiation solver,
/// their unrollers, the activation-literal ladder, and a mirror of the
/// `FrameDb`.
///
/// The context is the only place solver literals exist; everything above it
/// (blocking, generalization, propagation, orchestration) trades in
/// manager-neutral cubes. One run owns one context and drives it on the
/// calling thread; it is not internally synchronized.
///
/// FrameDb mirroring: `sync()` replays the database journal since the
/// context's last synced epoch — level pushes allocate activation literals,
/// blocked cubes become activation-gated clauses, graduations become
/// ungated F_∞ clauses asserted at both solver frames. Every query entry
/// point syncs first, so a query always sees the whole database.
///
/// Gate hygiene: finished blocking queries retire their activation gates as
/// permanently-satisfied unit clauses; the context counts them for
/// EngineStats::retired_gates. The gated query clauses are then satisfied at
/// level 0 for good, and the solver's level-0 collection
/// (sat::Solver::collect_satisfied) removes them from the watch lists at the
/// start of a later solve(), so they stop costing propagation.
///
/// Candidate ("may") clauses mirror through the same journal: SeedMay
/// allocates a dedicated per-candidate gate and asserts the clause at frame
/// 0 behind it; RetractMay retires that gate. Queries assume the live gates
/// and apply the clean-rerun discipline (see relative_query), so no answer
/// that leaves this context ever depends on an unproven candidate.

#include <map>
#include <memory>
#include <vector>

#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"
#include "mc/engine.hpp"
#include "mc/unroller.hpp"
#include "sat/solver.hpp"

namespace genfv::mc::pdr {

class QueryContext {
 public:
  /// `ts`, `property` and `options.lemmas` must all live in the same
  /// NodeManager and outlive the context; so must `db` and `options`. Both
  /// solvers take the options' budget and stop flag; with `drat_path` set,
  /// the transition solver logs DRAT to `<drat_path>` and the initiation
  /// solver to `<drat_path>-p1`.
  QueryContext(const ir::TransitionSystem& ts, ir::NodeRef property,
               const EngineOptions& options, FrameDb& db);

  const ir::TransitionSystem& system() const noexcept { return ts_; }
  sat::Solver& solver() { return solver_; }
  sat::Solver& init_solver() { return init_solver_; }
  Unroller& unroller() { return *unr_; }
  Unroller& init_unroller() { return *init_unr_; }

  /// Property literal at frame 0 of the transition solver / of the
  /// init-constrained solver.
  sat::Lit prop_lit() const noexcept { return prop0_; }
  sat::Lit init_prop_lit() const noexcept { return init_prop_; }

  /// True once cooperative cancellation has been requested.
  bool stopped() const noexcept;

  /// Mirror maintenance: replay every FrameDb event this mirror has not
  /// seen. Called internally by every query entry point; cheap when there is
  /// nothing new.
  void sync();

  /// Solver literal that is true iff cube literal `l` holds at `frame`.
  sat::Lit cube_lit(std::size_t frame, const StateLit& l);

  /// Assumptions activating F_level in this mirror: the activation literals
  /// of levels ≥ level. Requires a prior sync() covering `level`.
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
  /// retracted (it manufactured a spurious "blocked" answer). Returned
  /// answers and cores are therefore always candidate-free facts.
  sat::LBool relative_query(const Cube& cube, std::size_t level, bool assume_not_cube,
                            std::vector<sat::Lit>* core_out);

  /// SAT(F_{level-1} ∧ survivors ∧ T ∧ cube')? — the may-proof consecution
  /// check: assumes exactly the gates of `survivor_ids` (no other
  /// candidates), so an UNSAT certifies consecution relative to the named
  /// set only. Requires pdr_seed_candidates; `cube` is one survivor's cube.
  sat::LBool may_consecution_query(const std::vector<std::size_t>& survivor_ids,
                                   const Cube& cube, std::size_t level);

  /// Fresh one-shot activation gate for a temporary clause group (e.g. one
  /// F_∞ fixpoint pass). Retire it with retire_gate once the group is dead.
  sat::Lit new_gate();

  /// Permanently satisfy every clause gated by `gate` and count the litter.
  void retire_gate(sat::Lit gate);

  /// Lifetime gate litter — feeds EngineStats.
  std::size_t retired_gates() const noexcept { return retired_gates_; }

 private:
  /// Encode the base facts into the transition solver: frames 0/1, the
  /// gated init equalities, the seeded lemmas and the property literal.
  void bootstrap();

  void apply_event(const FrameDb::Event& event);
  void assert_blocked(const Cube& cube, std::size_t level);
  void assert_infinity(const Cube& cube);
  void assert_may(const Cube& cube, std::size_t id);

  /// Solve with `assumptions` plus every live may gate, applying the
  /// clean-rerun/retraction discipline documented on relative_query. The
  /// degenerate no-candidates path is exactly a plain solve (bit-for-bit
  /// with the pre-seeding engine).
  sat::LBool solve_frames(std::vector<sat::Lit> assumptions,
                          std::vector<sat::Lit>* core_out);

  /// After a clean SAT that a may-assumed query had blocked: retract every
  /// live candidate whose cube the model state satisfies (those gates are
  /// what excluded the state).
  void retract_violated_candidates();

  const ir::TransitionSystem& ts_;
  const EngineOptions& options_;
  FrameDb& db_;
  ir::NodeRef property_;

  sat::Solver solver_;
  sat::Solver init_solver_;
  std::unique_ptr<Unroller> unr_;
  std::unique_ptr<Unroller> init_unr_;
  /// activations_[0] gates the init-value equalities; activations_[k] gates
  /// the clauses blocked at delta level k.
  std::vector<sat::Lit> activations_;
  sat::Lit prop0_ = sat::kUndefLit;
  sat::Lit init_prop_ = sat::kUndefLit;
  std::size_t synced_epoch_ = 0;

  /// Live may-clause mirror: candidate id -> its dedicated gate + cube.
  /// std::map keeps assumption order deterministic (sorted by id).
  struct MayEntry {
    sat::Lit gate = sat::kUndefLit;
    Cube cube;
  };
  std::map<std::size_t, MayEntry> may_;

  std::size_t retired_gates_ = 0;
};

}  // namespace genfv::mc::pdr
