#pragma once

/// \file bmc.hpp
/// Bounded model checking: search for a property violation reachable from
/// the initial states within a growing bound. BMC "can find bugs in large
/// designs, [but] the correctness of a property is guaranteed only for the
/// analysis bound" (paper §II-A) — the E6 bench demonstrates exactly that
/// contrast against k-induction.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mc/exchange.hpp"
#include "mc/result.hpp"
#include "mc/unroller.hpp"

namespace genfv::mc {

struct BmcOptions {
  std::size_t max_depth = 64;
  /// Proven invariants assumed at every frame (sound, they restrict nothing
  /// reachable); used when re-checking targets under lemmas.
  std::vector<ir::NodeRef> lemmas;
  /// Best-effort cap on SAT conflicts per solve; -1 = unlimited.
  std::int64_t conflict_budget = -1;
  /// Cooperative cancellation: polled at every depth and at SAT restart
  /// boundaries; when it reads true the run returns Unknown. See
  /// EngineOptions::stop for the full contract.
  std::shared_ptr<std::atomic<bool>> stop;
  /// Portfolio lemma exchange: polled once per depth; absorbed clauses are
  /// asserted on every frame. nullptr = off.
  std::shared_ptr<LemmaMailbox> exchange;
  std::size_t exchange_slot = 0;
  /// SAT backend name (see sat::make_backend) and inprocessing toggle.
  std::string sat_backend = "internal";
  bool sat_inprocess = true;
  /// When non-empty, log a DRAT proof to `<drat_path>.cnf`/`.drat`.
  std::string drat_path;
};

class BmcEngine {
 public:
  BmcEngine(const ir::TransitionSystem& ts, BmcOptions options = {});

  /// Check `property` up to the configured bound.
  ///  * Falsified: returns the shortest counterexample trace.
  ///  * Unknown: no violation within max_depth (BMC can never return Proven).
  BmcResult check(ir::NodeRef property);

 private:
  const ir::TransitionSystem& ts_;
  BmcOptions options_;
};

}  // namespace genfv::mc
