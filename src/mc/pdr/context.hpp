#pragma once

/// \file context.hpp
/// The PDR query context: one transition solver + one initiation solver,
/// their unrollers, the activation-literal ladder and the run's `FrameDb`.
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
/// The context holds no unproven candidate clauses: the orchestration keeps
/// them, and they reach the solver only behind the one-shot pass gate of a
/// graduation fixpoint (propagate.hpp). Every query below therefore assumes
/// recorded frame facts only.

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

  // --- queries ---------------------------------------------------------------

  /// Solver literal that is true iff cube literal `l` holds at `frame`.
  sat::Lit cube_lit(std::size_t frame, const StateLit& l);

  /// Assumptions activating F_level: the activation literals of levels
  /// ≥ level.
  std::vector<sat::Lit> assumptions(std::size_t level) const;

  /// SAT(F_frontier ∧ ¬P)? — find a frontier state violating the property.
  sat::LBool solve_frontier_bad(std::size_t frontier);

  /// Fill `out` with the full frame-0 state cube and the concrete
  /// state/input values of the current model of the transition solver.
  void extract_state(Obligation& out);

  /// SAT(init ∧ cube)? — does the cube contain an initial state.
  sat::LBool intersects_init(const Cube& cube);

  /// Undef counts as "may intersect" — conservative for generalization,
  /// which must never block a potentially-initial state.
  bool may_intersect_init(const Cube& cube);

  /// SAT(F_{level-1} ∧ [¬cube] ∧ T ∧ cube')? On UNSAT, `core_out` (if given)
  /// receives the failed assumptions; intersect with the primed cube
  /// literals to find which were needed.
  sat::LBool relative_query(const Cube& cube, std::size_t level, bool assume_not_cube,
                            std::vector<sat::Lit>* core_out);

  /// Fresh one-shot activation gate for a temporary clause group (e.g. one
  /// pass of a consecution fixpoint). Retire it with retire_gate once the
  /// group is dead.
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

  std::size_t retired_gates_ = 0;
};

}  // namespace genfv::mc::pdr
