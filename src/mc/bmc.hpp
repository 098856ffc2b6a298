#pragma once

/// \file bmc.hpp
/// Bounded model checking: search for a property violation reachable from
/// the initial states within a growing bound. BMC "can find bugs in large
/// designs, [but] the correctness of a property is guaranteed only for the
/// analysis bound" (paper §II-A) — the E6 bench demonstrates exactly that
/// contrast against k-induction.

#include "mc/engine.hpp"

namespace genfv::mc {

/// Reads max_steps (the depth bound), lemmas (asserted at every frame),
/// conflict_budget, stop (polled at every depth), exchange_mailbox (polled
/// once per depth; absorbed clauses are asserted on every frame),
/// sat_backend, sat_inprocess and drat_path.
class BmcEngine final : public Engine {
 public:
  BmcEngine(const ir::TransitionSystem& ts, EngineOptions options = {});

  EngineKind kind() const noexcept override { return EngineKind::Bmc; }
  std::string name() const override { return "bmc"; }

  /// Check the conjunction of `properties` up to max_steps frames.
  ///  * Falsified: returns the shortest counterexample trace.
  ///  * Unknown: no violation within the bound (BMC can never return Proven).
  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace genfv::mc
