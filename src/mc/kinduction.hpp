#pragma once

/// \file kinduction.hpp
/// k-induction (Sheeran-Singh-Stålmarck) over the transition system.
///
/// For increasing k the engine maintains two incremental solvers:
///  * Base case (with initial-state constraint): no counterexample of length
///    k exists from the initial states.
///  * Inductive step (no initial-state constraint): any k consecutive frames
///    satisfying the property force the property at frame k+1. Because the
///    step case starts from an *arbitrary* state, it "may encompass
///    unreachable states … and end up in a state where the property fails"
///    (paper §II-A) — that spurious trace is surfaced as `step_cex`, the
///    artefact the GenAI flow analyzes.
///
/// Helper lemmas (proven invariants) are asserted at every frame of both
/// cases, shrinking the over-approximated step state space; this is the
/// mechanism by which the paper's generated helper assertions speed up or
/// unlock proofs. Optional simple-path constraints provide the classical
/// (non-AI) completeness improvement for comparison benches.

#include "mc/engine.hpp"

namespace genfv::mc {

/// Reads max_steps (the largest k), lemmas (asserted at every frame of both
/// cases), simple_path, conflict_budget, stop (polled at every k) and
/// drat_path (`<drat_path>_base` / `<drat_path>_step`).
class KInductionEngine final : public Engine {
 public:
  KInductionEngine(const ir::TransitionSystem& ts, EngineOptions options = {});

  EngineKind kind() const noexcept override { return EngineKind::KInduction; }
  std::string name() const override { return "k-induction"; }

  /// Joint (mutual) induction: prove the conjunction of `properties`. Some
  /// helper/target pairs are only inductive together; proving the
  /// conjunction proves every conjunct. `depth` is the final k; `cex` is the
  /// base-case counterexample, `step_cex` the last failed step case.
  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace genfv::mc
