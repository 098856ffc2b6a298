#pragma once

/// \file review_policy.hpp
/// The mechanical "human-in-the-loop": the paper's conclusion warns that
/// hallucinated assertions "produce vulnerable results" and recommends
/// analyzing model output before productive use. genfv makes that analysis
/// a hard gate with two stages:
///   1. simulation screening — cheap random runs that falsify most
///      hallucinations before any prover time is spent (optional, ablated
///      in bench E7),
///   2. the k-induction proof itself — mandatory and not configurable;
///      nothing unproven is ever assumed, so hallucinations can waste time
///      but can never corrupt a verdict.

#include <cstdint>
#include <optional>

#include "sim/random_sim.hpp"

namespace genfv::flow {

struct ReviewPolicy {
  /// Stage-1 simulation screen on/off (stage 2 is always on).
  bool sim_screen = true;
};

class ReviewGate {
 public:
  ReviewGate(const ir::TransitionSystem& ts, ReviewPolicy policy)
      : ts_(ts), policy_(policy) {}

  /// Try to falsify `expr` by random simulation; a witness trace means the
  /// candidate is certainly not an invariant.
  std::optional<sim::Trace> screen(ir::NodeRef expr);

 private:
  const ir::TransitionSystem& ts_;
  ReviewPolicy policy_;
  std::uint64_t counter_ = 0;
};

}  // namespace genfv::flow
