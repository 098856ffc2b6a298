#pragma once

/// \file result.hpp
/// Verdicts and effort statistics shared by every engine.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/transition_system.hpp"

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
  /// PDR candidate seeding (EngineOptions::pdr_seed_candidates): candidate
  /// clauses admitted as "may" clauses, graduated into real frame clauses by
  /// the may-proof pass, and retracted (refuted at init or implicated in a
  /// spurious blocked answer).
  std::uint64_t candidates_seeded = 0;
  std::uint64_t candidates_graduated = 0;
  std::uint64_t candidates_retracted = 0;
  double seconds = 0.0;

  /// The one list of counters (everything but `seconds`): calls
  /// `visit(name, s.field...)` once per counter, with that field of every
  /// record in `stats`. Summing, metrics publishing and the bench JSON all
  /// iterate this list, so a new counter added here reaches all of them.
  template <typename Visitor, typename... Stats>
  static void for_each_counter(Visitor&& visit, Stats&... stats) {
    visit("sat_calls", stats.sat_calls...);
    visit("conflicts", stats.conflicts...);
    visit("decisions", stats.decisions...);
    visit("propagations", stats.propagations...);
    visit("restarts", stats.restarts...);
    visit("learnt_clauses", stats.learnt_clauses...);
    visit("deleted_clauses", stats.deleted_clauses...);
    visit("retired_gates", stats.retired_gates...);
    visit("inprocessings", stats.inprocessings...);
    visit("subsumed_clauses", stats.subsumed_clauses...);
    visit("strengthened_clauses", stats.strengthened_clauses...);
    visit("eliminated_vars", stats.eliminated_vars...);
    visit("vivified_clauses", stats.vivified_clauses...);
    visit("candidates_seeded", stats.candidates_seeded...);
    visit("candidates_graduated", stats.candidates_graduated...);
    visit("candidates_retracted", stats.candidates_retracted...);
  }

  /// Fold one solver's lifetime counters into this record (sat_calls gains
  /// the solver's solve() count).
  void absorb(const sat::SolverStats& solver);

  /// Publish every counter into the global metrics registry under `prefix`
  /// (e.g. "engine." -> "engine.sat_calls"). The CLI's stats printing and
  /// --metrics-out read the registry, so end-of-run stats and live telemetry
  /// are one source of truth rather than hand-copied numbers.
  void publish_metrics(const std::string& prefix) const;

  EngineStats& operator+=(const EngineStats& other) {
    for_each_counter([](const char*, auto& mine, const auto& theirs) { mine += theirs; },
                     *this, other);
    seconds += other.seconds;
    return *this;
  }
};

}  // namespace genfv::mc
