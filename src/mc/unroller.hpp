#pragma once

/// \file unroller.hpp
/// Incremental time-frame expansion of a transition system into a SAT
/// solver, using functional unrolling: the state bits of frame f+1 *are* the
/// blasted next-state expressions of frame f (no fresh variables or equality
/// clauses for registers).
///
/// Frame 0 is fixed at construction. An unrolling that starts anywhere (the
/// induction step, PDR's main solver) gives frame-0 state bits fresh
/// variables. One that starts from init (BMC, the induction base case, PDR's
/// initiation solver) makes each state's frame-0 bits its blasted init value
/// when that value is a constant, so the bit-blaster folds the constants
/// forward through the frames and, through its structural-hashing memo,
/// identical logic fed identical bits shares one encoding. A state whose
/// init expression reads other states or inputs keeps fresh frame-0 bits,
/// tied to its init bits by equality clauses; a state without init is free.
/// Environment constraints are asserted at every created frame.

#include <vector>

#include "bitblast/bitblaster.hpp"
#include "mc/result.hpp"
#include "sim/trace.hpp"

namespace genfv::mc {

/// Where frame 0 starts: any state, or the system's initial states.
enum class FrameZero { Free, Init };

class Unroller {
 public:
  Unroller(const ir::TransitionSystem& ts, sat::Solver& solver,
           FrameZero frame_zero = FrameZero::Free);

  const ir::TransitionSystem& system() const noexcept { return ts_; }
  sat::Solver& solver() noexcept { return solver_; }
  bitblast::BitBlaster& blaster() noexcept { return blaster_; }

  /// Number of frames currently materialized (frame indices 0..count-1).
  std::size_t frame_count() const noexcept { return frames_.size(); }

  /// Materialize frames up to and including `frame`.
  void extend_to(std::size_t frame);

  /// Literal/bits of an arbitrary expression evaluated at `frame`
  /// (the frame must already exist). Returned bits are frozen: the caller
  /// holds them as handles it may re-reference (assumptions, new clauses),
  /// so the solver must never eliminate them.
  sat::Lit lit_at(ir::NodeRef expr, std::size_t frame);
  const bitblast::Bits& bits_at(ir::NodeRef expr, std::size_t frame);

  /// Permanently assert a width-1 expression at `frame`.
  void assert_at(ir::NodeRef expr, std::size_t frame);

  /// Assert that the state vectors of two frames differ in at least one bit
  /// (simple-path / uniqueness constraint for k-induction).
  void assert_states_differ(std::size_t frame_a, std::size_t frame_b);

  /// After a SAT answer: extract the trace over frames [0, frames).
  sim::Trace extract_trace(std::size_t frames);

  /// Model value of a leaf (input/state) at `frame`.
  std::uint64_t model_value(ir::NodeRef leaf, std::size_t frame);

 private:
  void build_frame(std::size_t frame);
  void freeze_bits(const bitblast::Bits& bits);

  const ir::TransitionSystem& ts_;
  sat::Solver& solver_;
  const FrameZero frame_zero_;
  bitblast::BitBlaster blaster_;
  /// Per-frame blast cache; leaf bindings seeded at frame construction.
  std::vector<bitblast::BlastCache> frames_;
};

}  // namespace genfv::mc
