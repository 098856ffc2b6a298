#pragma once

/// \file result.hpp
/// Verdicts and statistics shared by the BMC and k-induction engines.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace genfv::sat {
struct SolverStats;
}

namespace genfv::mc {

enum class Verdict {
  Proven,     ///< property holds in all reachable states (unbounded)
  Falsified,  ///< real counterexample from the initial states
  Unknown,    ///< bound/budget exhausted without a conclusion
};

std::string to_string(Verdict v);

/// Conjunction of width-1 properties in the system's node manager; proving
/// the conjunction proves every conjunct. Shared by all engines' prove_all.
ir::NodeRef conjoin_properties(const ir::TransitionSystem& ts,
                               const std::vector<ir::NodeRef>& properties);

/// Aggregate effort counters for one engine run. Every engine fills this the
/// same way — by absorbing the `sat::SolverStats` of each solver it owned —
/// so FlowReport and the benches compare like with like across engines.
struct EngineStats {
  std::size_t sat_calls = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  /// Clauses learnt from conflict analysis across every absorbed solver.
  std::uint64_t learnt_clauses = 0;
  /// Learnt clauses retired by clause-database reduction.
  std::uint64_t deleted_clauses = 0;
  /// PDR query hygiene: one-shot activation gates retired as permanently-
  /// satisfied unit clauses.
  std::uint64_t retired_gates = 0;
  /// SAT inprocessing (sat/inprocess.hpp), summed over absorbed solvers:
  /// sessions run, clauses subsumed / strengthened / vivified, variables
  /// eliminated by BVE.
  std::uint64_t inprocessings = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t eliminated_vars = 0;
  std::uint64_t vivified_clauses = 0;
  /// PDR candidate seeding (PdrOptions::seed_candidates): candidate clauses
  /// admitted as "may" clauses, graduated into real frame clauses by the
  /// may-proof pass, and retracted (refuted at init or implicated in a
  /// spurious blocked answer).
  std::uint64_t candidates_seeded = 0;
  std::uint64_t candidates_graduated = 0;
  std::uint64_t candidates_retracted = 0;
  double seconds = 0.0;

  /// Fold one solver's lifetime counters into this record (sat_calls gains
  /// the solver's solve() count).
  void absorb(const sat::SolverStats& solver);

  /// Publish every counter into the global metrics registry under `prefix`
  /// (e.g. "engine." -> "engine.sat_calls"). The CLI's stats printing and
  /// --metrics-out read the registry, so end-of-run stats and live telemetry
  /// are one source of truth rather than hand-copied numbers.
  void publish_metrics(const std::string& prefix) const;

  EngineStats& operator+=(const EngineStats& other) {
    sat_calls += other.sat_calls;
    conflicts += other.conflicts;
    decisions += other.decisions;
    propagations += other.propagations;
    restarts += other.restarts;
    learnt_clauses += other.learnt_clauses;
    deleted_clauses += other.deleted_clauses;
    retired_gates += other.retired_gates;
    inprocessings += other.inprocessings;
    subsumed_clauses += other.subsumed_clauses;
    strengthened_clauses += other.strengthened_clauses;
    eliminated_vars += other.eliminated_vars;
    vivified_clauses += other.vivified_clauses;
    candidates_seeded += other.candidates_seeded;
    candidates_graduated += other.candidates_graduated;
    candidates_retracted += other.candidates_retracted;
    seconds += other.seconds;
    return *this;
  }
};

/// Result of a bounded check.
struct BmcResult {
  Verdict verdict = Verdict::Unknown;
  std::size_t depth = 0;  ///< frames explored / CEX length - 1
  std::optional<sim::Trace> cex;
  EngineStats stats;
};

/// Result of a k-induction proof attempt.
struct InductionResult {
  Verdict verdict = Verdict::Unknown;
  std::size_t k = 0;  ///< induction depth at conclusion (or last attempted)
  /// Real counterexample from the base case (verdict == Falsified).
  std::optional<sim::Trace> base_cex;
  /// Induction-step counterexample: a k+1-frame execution starting from an
  /// *arbitrary* (possibly unreachable) state that satisfies the property on
  /// frames 0..k-1 and violates it at frame k. This is exactly the artefact
  /// the paper feeds to the LLM (Fig. 2 / Fig. 3). Present when the step
  /// case failed at the last attempted k.
  std::optional<sim::Trace> step_cex;
  /// verdict == Proven: invariant clauses absorbed from the portfolio's live
  /// lemma exchange during this run. Each holds in every reachable state
  /// (they were proven by the publishing member), so a k-induction win keeps
  /// feeding the lemma loop just like a PDR win does. Empty without
  /// exchange — plain k-induction produces no clause artefacts of its own.
  std::vector<ir::NodeRef> invariant;
  EngineStats stats;

  bool proven() const noexcept { return verdict == Verdict::Proven; }
  std::string summary() const;
};

}  // namespace genfv::mc
