#pragma once

/// \file portfolio.hpp
/// Portfolio scheduling over `mc::Engine`: run BMC, k-induction and IC3/PDR
/// on the same properties and adopt the first conclusive verdict
/// (Proven/Falsified). Soundness makes this race safe — conclusive verdicts
/// cannot disagree, so whichever engine finishes first speaks for all.
///
/// Scheduling: one std::thread per member. NodeManager is not thread-safe,
/// so every member runs over a private `ir::SystemClone`; properties and
/// lemmas are translated into each clone before the threads start, and the
/// winner's counterexample/invariant are translated back after every thread
/// has been joined. The first conclusive member sets the shared stop flag
/// (EngineOptions::stop machinery), which cancels the losers cooperatively
/// at their next poll. The race is pure: the stop flag is the only state the
/// members share while they run, so each member's search is exactly the one
/// it makes alone. Lemmas flow between engines at flow level instead
/// (LemmaManager, and PDR invariants admitted back; docs/lemmas.md).
///
/// The merged `EngineResult` names the winner, sums every member's
/// `EngineStats`, and carries a per-member `EngineBreakdown` so reports can
/// show who did what.
/// An inconclusive portfolio (every member Unknown) forwards a k-induction
/// step CEX when one was produced, keeping the GenAI repair loop fed even
/// when no engine concluded.

#include "mc/engine.hpp"

namespace genfv::mc {

class PortfolioEngine final : public Engine {
 public:
  /// `ts` must outlive the engine. Throws UsageError when
  /// `options.portfolio_engines` contains EngineKind::Portfolio.
  PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options);

  EngineKind kind() const noexcept override { return EngineKind::Portfolio; }
  std::string name() const override { return "portfolio"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  EngineResult run_threaded(const std::vector<ir::NodeRef>& properties);

  const ir::TransitionSystem& ts_;
  EngineOptions options_;
  std::vector<EngineKind> members_;
};

}  // namespace genfv::mc
