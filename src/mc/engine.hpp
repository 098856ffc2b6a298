#pragma once

/// \file engine.hpp
/// The abstract model-checking engine interface. BMC (`BmcEngine`),
/// k-induction (`KInductionEngine`), IC3/PDR (`pdr::PdrEngine`) and the
/// portfolio (`PortfolioEngine`) all implement it, so the flows, the CLI and
/// the benches can select an engine at runtime. Every engine reads its knobs
/// from one `EngineOptions` and answers with one `EngineResult`.
///
/// Contracts shared by every implementation:
///  * Engines never mutate the transition system, but they DO create nodes
///    in its NodeManager (property conjunction, invariant export), so two
///    engines must not run concurrently over the same system.
///  * `Verdict::Proven` means the property holds in every reachable state
///    (unbounded); `Falsified` comes with a real counterexample trace from
///    the initial states; `Unknown` covers bound/budget exhaustion and
///    cooperative cancellation.
///  * A returned `EngineResult` references nodes of the system the engine
///    was constructed over, and is only valid while that system's
///    NodeManager lives.

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "mc/result.hpp"
#include "sim/trace.hpp"

namespace genfv::mc {

enum class EngineKind {
  Bmc,         ///< bounded search for counterexamples (never Proven)
  KInduction,  ///< Sheeran-Singh-Stålmarck k-induction
  Pdr,         ///< IC3/property-directed reachability
  Portfolio,   ///< a k-induction probe at k = 1, then PDR (portfolio.hpp)
};

std::string to_string(EngineKind kind);

/// Parse an engine name as accepted by the CLI `--engine` flag:
/// "bmc", "kind"/"kinduction"/"k-induction", "pdr"/"ic3", "portfolio".
std::optional<EngineKind> engine_kind_from_string(const std::string& name);

/// The one options type every engine reads. Each engine maps `max_steps`
/// onto its own bound: BMC depth, induction k, PDR frame count.
struct EngineOptions {
  std::size_t max_steps = 32;
  /// Proven invariants assumed everywhere (sound: they restrict nothing
  /// reachable). PDR additionally uses them to strengthen every frame.
  std::vector<ir::NodeRef> lemmas{};
  /// k-induction only: pairwise state-distinctness in the step case.
  bool simple_path = false;
  /// Best-effort SAT conflict cap per run; -1 = unlimited.
  std::int64_t conflict_budget = -1;
  /// PDR only: *candidate* (unproven) clause expressions, e.g. the clauses
  /// of a near-miss proof-cache entry. PDR never assumes them: a candidate
  /// becomes a frame clause only when a consecution proof graduates it, and
  /// is never exported otherwise; a wrong candidate can cost work, never
  /// soundness (docs/lemmas.md). Must live in the engine's NodeManager;
  /// non-clause shapes are skipped.
  std::vector<ir::NodeRef> pdr_candidate_lemmas{};
  /// Cooperative cancellation. Engines poll the flag between solver queries
  /// and hand it to their SAT solvers, which poll it at restart boundaries;
  /// once it reads true the run winds down and reports Verdict::Unknown.
  /// Thread-safety: engines and solvers only ever *read* the flag (relaxed
  /// loads), so any thread may set it at any time; shared ownership keeps it
  /// alive for detached observers. nullptr (the default) disables
  /// cancellation.
  std::shared_ptr<std::atomic<bool>> stop{};
  /// When non-empty, SAT solvers log DRAT proofs under this path base
  /// (`<path>.cnf` + `<path>.drat`). BMC uses the base as is, k-induction
  /// appends `_base` / `_step`, PDR's initiation solver appends `-p1`. An
  /// UNSAT run's proof validates with scripts/check_drat.py. Meant for
  /// single-engine runs and the portfolio, whose two stages do not collide.
  std::string drat_path{};

  // --- ignored; kept only for perfbench/ ------------------------------------
  // No engine reads these; the frozen perfbench/ benchmark still sets them.
  std::size_t pdr_workers = 1;
  bool pdr_ternary_lifting = false;
  bool pdr_seed_candidates = false;  ///< PDR seeds iff pdr_candidate_lemmas is non-empty
  std::size_t pdr_candidate_strikes = 2;
  std::string sat_backend = "internal";
  bool sat_inprocess = true;
  bool exchange = true;
};

/// The one result type every engine returns. Engines fill the fields that
/// apply to them.
struct EngineResult {
  Verdict verdict = Verdict::Unknown;
  /// BMC: deepest frame explored (CEX length - 1); k-induction: final k;
  /// PDR: frontier frame (CEX length - 1); portfolio: the concluding
  /// stage's depth, PDR's when neither concludes.
  std::size_t depth = 0;
  /// Real counterexample from the initial states (verdict == Falsified).
  std::optional<sim::Trace> cex;
  /// k-induction step-case artefact: a k+1-frame execution starting from an
  /// *arbitrary* (possibly unreachable) state that satisfies the property on
  /// frames 0..k-1 and violates it at frame k. This is exactly the artefact
  /// the paper feeds to the LLM (Fig. 2 / Fig. 3). Present when the step
  /// case failed at the last attempted k.
  std::optional<sim::Trace> step_cex;
  /// verdict == Proven: invariant clauses. PDR exports the clauses of its
  /// final inductive frame; BMC and k-induction export none. Each clause
  /// individually holds in every reachable state, so each can be re-used as
  /// a lemma (and printed as SVA via ir::Printer); PDR's conjunction is
  /// inductive and implies the property relative to any lemmas that seeded
  /// the run. The portfolio forwards the concluding stage's invariant.
  std::vector<ir::NodeRef> invariant;
  /// Aggregate effort. For the portfolio this sums both stages' counters,
  /// and `seconds` is the portfolio's wall-clock time.
  EngineStats stats;
  /// Portfolio only: the stage whose conclusive verdict this is
  /// ("k-induction" or "pdr"); empty for single engines and for an
  /// inconclusive portfolio.
  std::string winner;

  bool proven() const noexcept { return verdict == Verdict::Proven; }
  std::string summary() const;
};

/// Uniform engine façade. Implementations are single-use per construction
/// but reusable across prove calls; they hold a reference to the transition
/// system, never own it.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual EngineKind kind() const noexcept = 0;
  virtual std::string name() const = 0;

  /// Decide the conjunction of `properties` (a single property is the
  /// common case). Proving the conjunction proves every conjunct.
  virtual EngineResult prove_all(const std::vector<ir::NodeRef>& properties) = 0;

  EngineResult prove(ir::NodeRef property) { return prove_all({property}); }
};

/// Instantiate an engine over `ts`. The transition system must outlive the
/// returned engine.
std::unique_ptr<Engine> make_engine(EngineKind kind, const ir::TransitionSystem& ts,
                                    const EngineOptions& options = {});

/// Returns 1; it survives only because perfbench/ calls it.
std::size_t auto_pdr_workers(const ir::TransitionSystem& ts) noexcept;

// --- flow-facing shapes, kept only for perfbench/ ---------------------------
// No engine reads KInductionOptions or returns InductionResult. The frozen
// perfbench/ benchmark sets FlowOptions::engine as a KInductionOptions and
// reads TargetReport::result as an InductionResult, so both stay until those
// fields become an EngineOptions and an EngineResult.

/// The proof bounds the flows carry (FlowOptions::engine,
/// LemmaManagerOptions::engine). `to_engine_options` is its only reader.
struct KInductionOptions {
  std::size_t max_k = 32;
  /// Proven invariants assumed by every proof.
  std::vector<ir::NodeRef> lemmas{};
  std::string drat_path{};

  // --- ignored; kept only for perfbench/ ------------------------------------
  std::string sat_backend = "internal";
  bool sat_inprocess = true;
};

/// A target's verdict as FlowReport stores it; `to_induction_result` is its
/// only producer.
struct InductionResult {
  Verdict verdict = Verdict::Unknown;
  std::size_t k = 0;  ///< EngineResult::depth
  std::optional<sim::Trace> base_cex;  ///< EngineResult::cex
  std::optional<sim::Trace> step_cex;
  std::vector<ir::NodeRef> invariant;
  EngineStats stats;

  bool proven() const noexcept { return verdict == Verdict::Proven; }
  std::string summary() const;
};

/// max_k becomes max_steps; lemmas and the DRAT path carry over; every other
/// field keeps its EngineOptions default.
EngineOptions to_engine_options(const KInductionOptions& options);

/// depth becomes k, cex becomes base_cex.
InductionResult to_induction_result(const EngineResult& result);

}  // namespace genfv::mc
