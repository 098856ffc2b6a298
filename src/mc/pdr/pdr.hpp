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
///  * admitted lemmas (`PdrOptions::lemmas`) seed every frame as initial
///    strengthenings, and
///  * on Proven the final frame's clauses are exported (`PdrResult::
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mc/exchange.hpp"
#include "mc/result.hpp"
#include "mc/unroller.hpp"

namespace genfv::mc::pdr {

struct PdrOptions {
  /// Maximum frame-trace length before giving up (Unknown).
  std::size_t max_frames = 64;
  /// Proven invariants: asserted on every frame of the transition relation
  /// (equivalently, clauses of F_∞), shrinking every approximation.
  std::vector<ir::NodeRef> lemmas;
  /// Best-effort cap on SAT conflicts per solve; -1 = unlimited.
  std::int64_t conflict_budget = -1;
  /// Safety valve: total proof obligations before giving up (Unknown).
  std::size_t max_obligations = 100000;
  /// Cooperative cancellation: polled per obligation, per propagation pass
  /// and at SAT restart boundaries; when it reads true the run returns
  /// Unknown. See EngineOptions::stop for the full contract.
  std::shared_ptr<std::atomic<bool>> stop;
  /// Portfolio lemma exchange (publisher side): clauses are published the
  /// moment they are pushed to F_∞ — i.e. when the post-propagation
  /// mutual-induction fixpoint certifies a frontier clause set inductive, so
  /// each published clause holds in every reachable state well before the
  /// full proof converges. nullptr = off (the F_∞ push still runs; it
  /// strengthens PDR itself).
  std::shared_ptr<LemmaMailbox> exchange;
  std::size_t exchange_slot = 0;
  /// Candidate-lemma frame seeding: admit *unproven* candidate clauses
  /// (`candidate_lemmas`) into the frame database as "may" clauses —
  /// assumed in queries behind dedicated activation gates, never exported,
  /// never pushed to F_∞. A may-proof pass graduates candidates whose mutual
  /// relative-induction check succeeds into ordinary frame clauses; a
  /// candidate implicated in a spurious "blocked" answer (a may-contaminated
  /// UNSAT whose clean re-run finds a state the candidate excludes) is
  /// struck, and retracted on its second strike. Also turns on `exchange`
  /// intake: fetched proven clauses join F_∞. See docs/lemmas.md for the
  /// full soundness story.
  bool seed_candidates = false;
  /// Unproven candidate helper lemmas (e.g. LemmaManager candidates that
  /// failed their k-induction proof). Only clause-shaped expressions —
  /// disjunctions of state-bit literals — can seed; others are skipped.
  /// Ignored unless `seed_candidates` is set.
  std::vector<ir::NodeRef> candidate_lemmas;
  /// SAT backend name (see sat::make_backend) and inprocessing toggle,
  /// stamped onto both of the run's solvers.
  std::string sat_backend = "internal";
  bool sat_inprocess = true;
  /// When non-empty, the transition solver logs a DRAT proof to this path
  /// base and the initiation solver to `<drat_path>-p1`.
  std::string drat_path;
};

struct PdrResult {
  Verdict verdict = Verdict::Unknown;
  std::size_t depth = 0;  ///< frontier frame reached / CEX length - 1
  /// Real counterexample from the initial states (verdict == Falsified).
  std::optional<sim::Trace> cex;
  /// verdict == Proven: clauses of the final inductive frame. Every clause
  /// individually holds in all reachable states (unconditionally, so each
  /// is safe to assume as a lemma); the conjunction is inductive and
  /// implies the property *relative to any seeded PdrOptions::lemmas* — a
  /// standalone certificate check must conjoin those lemmas too.
  std::vector<ir::NodeRef> invariant;
  EngineStats stats;

  bool proven() const noexcept { return verdict == Verdict::Proven; }
  std::string summary() const;
};

/// Ownership/threading contract: the engine holds a reference to `ts` (which
/// must outlive it) and *creates nodes in its NodeManager* (property
/// conjunction, invariant export) — so a PdrEngine must not run concurrently
/// with anything else touching the same manager; the portfolio gives each
/// concurrent engine a private `ir::SystemClone` instead. The only state
/// legally shared with other threads is `PdrOptions::stop`, which is
/// read-only here and may be set by any thread at any time.
class PdrEngine {
 public:
  PdrEngine(const ir::TransitionSystem& ts, PdrOptions options = {});

  /// Decide a single width-1 property.
  ///  * Proven: holds in every reachable state; `invariant` is filled.
  ///  * Falsified: `cex` is a real trace from the initial states (validated
  ///    shape: frame 0 satisfies init, each frame steps to the next).
  ///  * Unknown: frame bound, conflict budget, obligation cap, or the stop
  ///    flag ran out first.
  /// Throws UsageError when some state's init expression reads an input
  /// (PDR needs "is this cube initial" to be a pure state predicate).
  PdrResult prove(ir::NodeRef property);

  /// Decide the conjunction of `properties`; proving it proves every
  /// conjunct (same result contract as `prove`).
  PdrResult prove_all(const std::vector<ir::NodeRef>& properties);

 private:
  const ir::TransitionSystem& ts_;
  PdrOptions options_;
};

}  // namespace genfv::mc::pdr
