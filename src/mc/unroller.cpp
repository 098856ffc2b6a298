#include "mc/unroller.hpp"

#include "ir/substitute.hpp"
#include "util/status.hpp"

namespace genfv::mc {

Unroller::Unroller(const ir::TransitionSystem& ts, sat::Solver& solver,
                   FrameZero frame_zero)
    : ts_(ts), solver_(solver), frame_zero_(frame_zero), blaster_(solver) {
  ts_.validate();
  extend_to(0);
}

void Unroller::freeze_bits(const bitblast::Bits& bits) {
  for (const sat::Lit p : bits) solver_.freeze(sat::var(p));
}

void Unroller::build_frame(std::size_t frame) {
  GENFV_ASSERT(frame == frames_.size(), "frames must be built in order");
  bitblast::BlastCache cache;

  // Leaf bits are the engines' durable handles into the solver — trace
  // extraction, induction clauses and PDR cubes all reference them across
  // many solves — so they are frozen against variable elimination.

  // Inputs: fresh variables every frame.
  for (const ir::NodeRef in : ts_.inputs()) {
    const auto [it, inserted] = cache.emplace(in, blaster_.fresh_vector(in->width()));
    freeze_bits(it->second);
  }

  if (frame == 0) {
    const bool from_init = frame_zero_ == FrameZero::Init;
    std::vector<const ir::StateVar*> tied;
    for (const auto& s : ts_.states()) {
      if (from_init && s.init != nullptr && ir::collect_leaves(s.init).empty()) {
        // Constant init: the frame-0 bits are the constant literals.
        const bitblast::Bits bits = blaster_.blast(s.init, cache);
        freeze_bits(bits);
        cache.emplace(s.var, bits);
        continue;
      }
      const auto [it, inserted] =
          cache.emplace(s.var, blaster_.fresh_vector(s.var->width()));
      freeze_bits(it->second);
      if (from_init && s.init != nullptr) tied.push_back(&s);
    }
    // Inits that read other states or inputs, once every leaf is bound.
    for (const ir::StateVar* s : tied) {
      const bitblast::Bits state_bits = cache.at(s->var);
      const bitblast::Bits init_bits = blaster_.blast(s->init, cache);
      blaster_.assert_equal(state_bits, init_bits);
    }
  } else {
    // Functional unrolling: next-state expressions of the previous frame.
    auto& prev = frames_[frame - 1];
    for (const auto& s : ts_.states()) {
      const bitblast::Bits bits = blaster_.blast(s.next, prev);
      freeze_bits(bits);
      cache.emplace(s.var, std::move(bits));
    }
  }
  frames_.push_back(std::move(cache));

  // Environment constraints hold at every frame.
  for (const ir::NodeRef c : ts_.constraints()) {
    assert_at(c, frame);
  }
}

void Unroller::extend_to(std::size_t frame) {
  while (frames_.size() <= frame) build_frame(frames_.size());
}

sat::Lit Unroller::lit_at(ir::NodeRef expr, std::size_t frame) {
  GENFV_ASSERT(expr->width() == 1, "lit_at requires a width-1 expression");
  return bits_at(expr, frame)[0];
}

const bitblast::Bits& Unroller::bits_at(ir::NodeRef expr, std::size_t frame) {
  GENFV_ASSERT(frame < frames_.size(), "frame not materialized");
  const bitblast::Bits& bits = blaster_.blast(expr, frames_[frame]);
  freeze_bits(bits);
  return bits;
}

void Unroller::assert_at(ir::NodeRef expr, std::size_t frame) {
  solver_.add_clause(lit_at(expr, frame));
}

void Unroller::assert_states_differ(std::size_t frame_a, std::size_t frame_b) {
  std::vector<sat::Lit> diffs;
  for (const auto& s : ts_.states()) {
    // Copy: the second bits_at call may rehash the frame cache.
    const bitblast::Bits a = bits_at(s.var, frame_a);
    const bitblast::Bits b_bits = bits_at(s.var, frame_b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      diffs.push_back(blaster_.gate_xor(a[i], b_bits[i]));
    }
  }
  solver_.add_clause(std::move(diffs));
}

std::uint64_t Unroller::model_value(ir::NodeRef leaf, std::size_t frame) {
  const auto& bits = bits_at(leaf, frame);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (solver_.model_value(bits[i]) == sat::LBool::True) value |= (1ULL << i);
  }
  return value;
}

sim::Trace Unroller::extract_trace(std::size_t frames) {
  sim::Trace trace(&ts_);
  for (std::size_t f = 0; f < frames; ++f) {
    sim::Assignment env;
    for (const ir::NodeRef in : ts_.inputs()) env[in] = model_value(in, f);
    for (const auto& s : ts_.states()) env[s.var] = model_value(s.var, f);
    trace.append(std::move(env));
  }
  return trace;
}

}  // namespace genfv::mc
