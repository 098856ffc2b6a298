#pragma once

/// \file pdr.hpp
/// IC3 / property-directed reachability (Bradley; Een-Mishchenko-Brayton
/// style implementation) over the shared Unroller/BitBlaster/CDCL substrate.
///
/// Where k-induction over-approximates with "any k good frames" and relies
/// on externally supplied helper lemmas to cut the unreachable step states,
/// PDR *discovers* such strengthenings itself: it maintains a trace of
/// over-approximating frames, blocks concrete bad states backwards with
/// relatively-inductive clauses (generalized via `Solver::failed_assumptions`
/// unsat cores), and pushes clauses forward until two adjacent frames agree
/// — at which point the agreeing frame is an inductive invariant.
///
/// Integration with the GenAI flow is bidirectional:
///  * admitted lemmas (`EngineOptions::lemmas`) seed every frame as initial
///    strengthenings, and
///  * on Proven the final frame's clauses are exported (`EngineResult::
///    invariant`) so the helper-generation flow can re-use them as proven
///    lemmas.
///
/// The engine is layered (this header is only the façade):
///  * `frame_db.hpp` — the solver-neutral frame database;
///  * `context.hpp` — the query context (transition + initiation solvers,
///    unrollers, activation literals, the FrameDb mirror);
///  * `blocking.hpp` / `generalize.hpp` / `propagate.hpp` — the algorithm
///    split into frontier strengthening, inductive generalization and
///    forward propagation / F_∞ graduation;
///  * `pdr.cpp` — orchestration. One run is one query context on the
///    caller's thread.

#include "mc/engine.hpp"

namespace genfv::mc::pdr {

/// Reads from EngineOptions:
///  * max_steps — frame-trace length before giving up (Unknown);
///  * lemmas — proven invariants asserted on every frame of the transition
///    relation (equivalently, clauses of F_∞);
///  * conflict_budget, stop (polled per obligation, per propagation pass and
///    at SAT restart boundaries), sat_inprocess — stamped onto both of the
///    run's solvers;
///  * drat_path — the transition solver logs to `<drat_path>`, the
///    initiation solver to `<drat_path>-p1`;
///  * exchange_mailbox / exchange_slot — clauses are published the moment
///    they are pushed to F_∞, i.e. when the post-propagation mutual-induction
///    fixpoint certifies a frontier clause set inductive, so each published
///    clause holds in every reachable state well before the full proof
///    converges;
///  * pdr_seed_candidates / pdr_candidate_lemmas — admit *unproven* candidate
///    clauses into the frame database as "may" clauses: assumed in queries
///    behind dedicated activation gates, never exported, never pushed to
///    F_∞. A may-proof pass graduates candidates whose mutual relative-
///    induction check succeeds into ordinary frame clauses; a candidate
///    implicated in a spurious "blocked" answer is struck, and retracted on
///    its kCandidateStrikes-th strike. Only clause-shaped expressions —
///    disjunctions of state-bit literals — can seed; others are skipped.
///    Seeding also turns on mailbox intake: fetched proven clauses join F_∞.
///    See docs/lemmas.md for the full soundness story.
///
/// Result contract of `prove_all` (the conjunction of the properties):
///  * Proven: holds in every reachable state; `invariant` holds the clauses
///    of the final inductive frame. Every clause individually holds in all
///    reachable states; the conjunction is inductive and implies the
///    property *relative to any seeded lemmas* — a standalone certificate
///    check must conjoin those lemmas too.
///  * Falsified: `cex` is a real trace from the initial states (frame 0
///    satisfies init, each frame steps to the next); `depth` is its length
///    minus one.
///  * Unknown: frame bound, conflict budget, obligation cap
///    (kMaxObligations), or the stop flag ran out first.
/// Throws UsageError when some state's init expression reads an input (PDR
/// needs "is this cube initial" to be a pure state predicate).
///
/// Ownership/threading contract: the engine holds a reference to `ts` (which
/// must outlive it) and *creates nodes in its NodeManager* (property
/// conjunction, invariant export) — so a PdrEngine must not run concurrently
/// with anything else touching the same manager; the portfolio gives each
/// concurrent engine a private `ir::SystemClone` instead. The only state
/// legally shared with other threads is `EngineOptions::stop`, which is
/// read-only here and may be set by any thread at any time.
class PdrEngine final : public Engine {
 public:
  PdrEngine(const ir::TransitionSystem& ts, EngineOptions options = {});

  EngineKind kind() const noexcept override { return EngineKind::Pdr; }
  std::string name() const override { return "pdr"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace genfv::mc::pdr
