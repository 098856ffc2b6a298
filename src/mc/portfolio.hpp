#pragma once

/// \file portfolio.hpp
/// The robust entry point over `mc::Engine`: a k-induction probe at k = 1,
/// then IC3/PDR with the full budget, one after the other on the calling
/// thread and over the caller's system.
///
/// The probe settles the cheap cases: a property that is 1-inductive
/// (relative to the seeded lemmas) is Proven, one violated in an initial
/// state is Falsified. Everything else goes to PDR, which discovers the
/// strengthening that induction alone lacks and finds counterexamples at any
/// depth within its frames. Both stages read the portfolio's
/// `EngineOptions` unchanged (lemmas, candidates, stop flag, DRAT path; the
/// DRAT files of the two stages do not collide), except that the probe's
/// `max_steps` is 1.
///
/// The result is the concluding stage's, with `winner` naming that stage
/// ("k-induction" or "pdr"). `stats` sums both stages' counters; `seconds`
/// is the portfolio's wall time. An inconclusive run forwards the probe's
/// induction-step CEX so the GenAI repair loop stays fed. A raised stop
/// flag after the probe skips PDR. Like PDR, the portfolio throws
/// UsageError on a state whose initial value reads an input.

#include "mc/engine.hpp"

namespace genfv::mc {

class PortfolioEngine final : public Engine {
 public:
  /// `ts` must outlive the engine.
  PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options);

  EngineKind kind() const noexcept override { return EngineKind::Portfolio; }
  std::string name() const override { return "portfolio"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace genfv::mc
