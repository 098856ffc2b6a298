#include "sim/random_sim.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"

namespace genfv::sim {

namespace {

/// Rejection-sampling budget per frame. On the final failed attempt the last
/// draw is used as-is: sampling is only ever an under-approximation, never a
/// soundness issue.
constexpr int kInputAttempts = 64;

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// One operator node: where its operands live and where its value goes.
struct Instr {
  ir::Op op;
  std::uint8_t arity;
  unsigned width;
  unsigned p0;
  unsigned p1;
  std::uint32_t out;
  std::array<std::uint32_t, 3> in;
  std::array<unsigned, 3> in_width;
};

/// A transition system compiled for simulation. Slots [0, I) hold the inputs
/// in ts.inputs() order and [I, I+S) the states in ts.states() order;
/// constants and operator nodes follow. The frame code runs the constraints'
/// cone, then the rest of the cone of the watched expression and every next
/// function, so a frame evaluates each node once.
class Program {
 public:
  explicit Program(const ir::TransitionSystem& ts) : ts_(ts) {
    for (const ir::NodeRef in : ts.inputs()) bind(in, true, true);
    for (const auto& s : ts.states()) bind(s.var, true, false);
    num_inputs_ = ts.inputs().size();
    num_leaves_ = values_.size();
  }

  const ir::TransitionSystem& system() const noexcept { return ts_; }

  /// Compile the constraints, `watch` (may be null) and the next functions.
  void compile_frame(ir::NodeRef watch) {
    for (const ir::NodeRef c : ts_.constraints()) {
      constraint_slot_.push_back(emit(c, frame_code_, frame_ready_));
    }
    constraints_end_ = frame_code_.size();
    if (watch != nullptr) watch_slot_ = emit(watch, frame_code_, frame_ready_);
    for (const auto& s : ts_.states()) {
      GENFV_ASSERT(s.next != nullptr, "simulate: state without next function");
      next_slot_.push_back(emit(s.next, frame_code_, frame_ready_));
    }
  }

  /// Reset draws, in reset_state's order: one value per input (seen only by
  /// the inits), then a random value per state without an init.
  void reset(util::Xoshiro256& rng) {
    if (!init_compiled_) compile_init();
    draw_free_inputs(rng);
    run(init_code_, 0, init_code_.size());
    const auto& states = ts_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      const unsigned width = states[s].var->width();
      values_[num_inputs_ + s] = init_slot_[s] == kNoSlot
                                     ? rng.bits(width)
                                     : values_[init_slot_[s]] & ir::width_mask(width);
    }
  }

  /// Bind every state from `state_values`.
  void load_states(const Assignment& state_values) {
    const auto& states = ts_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      const auto it = state_values.find(states[s].var);
      if (it == state_values.end()) {
        throw UsageError("run_from: state '" + states[s].var->name() + "' is unbound");
      }
      values_[num_inputs_ + s] = it->second & ir::width_mask(states[s].var->width());
    }
  }

  /// Draw this frame's inputs, rejection-sampled so the environment
  /// constraints hold in the current state (e.g. reset held inactive).
  void draw_inputs(util::Xoshiro256& rng) {
    for (int attempt = 0; attempt < kInputAttempts; ++attempt) {
      draw_free_inputs(rng);
      run(frame_code_, 0, constraints_end_);
      if (std::all_of(constraint_slot_.begin(), constraint_slot_.end(),
                      [&](std::uint32_t c) { return values_[c] != 0; })) {
        return;
      }
    }
  }

  /// Evaluate the watched expression and the next functions.
  void eval_frame() { run(frame_code_, constraints_end_, frame_code_.size()); }

  std::uint64_t watched() const { return values_[watch_slot_]; }

  /// Move to the successor state computed by eval_frame().
  void latch() {
    const auto& states = ts_.states();
    latch_.resize(states.size());
    for (std::size_t s = 0; s < states.size(); ++s) {
      latch_[s] = values_[next_slot_[s]] & ir::width_mask(states[s].var->width());
    }
    std::copy(latch_.begin(), latch_.end(), values_.begin() + num_inputs_);
  }

  /// The current frame's leaf values (inputs, then states).
  std::span<const std::uint64_t> leaves() const { return {values_.data(), num_leaves_}; }
  std::size_t num_leaves() const noexcept { return num_leaves_; }

  /// Materialize leaf values as a frame environment.
  Assignment frame(std::span<const std::uint64_t> leaves) const {
    Assignment env;
    env.reserve(num_leaves_);
    const auto& inputs = ts_.inputs();
    for (std::size_t i = 0; i < num_inputs_; ++i) env.emplace(inputs[i], leaves[i]);
    const auto& states = ts_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      env.emplace(states[s].var, leaves[num_inputs_ + s]);
    }
    return env;
  }

  Assignment states() const {
    Assignment state;
    const auto& states = ts_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      state.emplace(states[s].var, values_[num_inputs_ + s]);
    }
    return state;
  }

 private:
  void bind(ir::NodeRef leaf, bool frame_ready, bool init_ready) {
    slot_.emplace(leaf, static_cast<std::uint32_t>(values_.size()));
    values_.push_back(0);
    frame_ready_.push_back(frame_ready);
    init_ready_.push_back(init_ready);
  }

  /// Slot of `node`, allocating one on first sight. Inputs and states are
  /// bound up front, so any other leaf but a constant is never ready.
  std::uint32_t slot_of(ir::NodeRef node) {
    if (const auto it = slot_.find(node); it != slot_.end()) return it->second;
    bind(node, node->is_const(), node->is_const());
    if (node->is_const()) values_.back() = node->value();
    return slot_.at(node);
  }

  /// Append to `code`, in topological order, every node of `root`'s cone not
  /// yet `ready`; returns the slot holding `root`.
  std::uint32_t emit(ir::NodeRef root, std::vector<Instr>& code, std::vector<char>& ready) {
    std::vector<std::pair<ir::NodeRef, bool>> stack{{root, false}};
    while (!stack.empty()) {
      const auto [node, expanded] = stack.back();
      stack.pop_back();
      const std::uint32_t out = slot_of(node);
      if (ready[out]) continue;
      if (node->is_leaf()) {
        throw UsageError("simulate: unbound leaf '" + node->name() + "'");
      }
      GENFV_ASSERT(node->arity() <= 3, "simulate: operator arity above 3");
      if (!expanded) {
        stack.push_back({node, true});
        for (const ir::NodeRef c : node->children()) stack.push_back({c, false});
        continue;
      }
      Instr ins{node->op(), static_cast<std::uint8_t>(node->arity()), node->width(),
                node->hi(), node->lo(), out, {}, {}};
      for (std::size_t k = 0; k < node->arity(); ++k) {
        ins.in[k] = slot_.at(node->child(k));
        ins.in_width[k] = node->child(k)->width();
      }
      code.push_back(ins);
      ready[out] = 1;
    }
    return slot_.at(root);
  }

  /// Inits are evaluated under the reset's input draw alone: a state in an
  /// init's cone is unbound.
  void compile_init() {
    for (const auto& s : ts_.states()) {
      init_slot_.push_back(s.init == nullptr ? kNoSlot : emit(s.init, init_code_, init_ready_));
    }
    init_compiled_ = true;
  }

  void draw_free_inputs(util::Xoshiro256& rng) {
    const auto& inputs = ts_.inputs();
    for (std::size_t i = 0; i < num_inputs_; ++i) values_[i] = rng.bits(inputs[i]->width());
  }

  void run(const std::vector<Instr>& code, std::size_t begin, std::size_t end) {
    std::array<std::uint64_t, 3> operands{};
    for (std::size_t i = begin; i < end; ++i) {
      const Instr& ins = code[i];
      for (std::size_t k = 0; k < ins.arity; ++k) operands[k] = values_[ins.in[k]];
      values_[ins.out] =
          ir::eval_op(ins.op, ins.width, ins.p0, ins.p1, {operands.data(), ins.arity},
                      {ins.in_width.data(), ins.arity});
    }
  }

  const ir::TransitionSystem& ts_;
  std::unordered_map<ir::NodeRef, std::uint32_t> slot_;
  std::vector<std::uint64_t> values_;
  /// Per slot: computed earlier in the frame code / the init code.
  std::vector<char> frame_ready_;
  std::vector<char> init_ready_;
  std::size_t num_inputs_ = 0;
  std::size_t num_leaves_ = 0;

  std::vector<Instr> frame_code_;
  std::vector<std::uint32_t> constraint_slot_;
  std::size_t constraints_end_ = 0;
  std::uint32_t watch_slot_ = kNoSlot;
  std::vector<std::uint32_t> next_slot_;
  std::vector<std::uint64_t> latch_;

  std::vector<Instr> init_code_;
  std::vector<std::uint32_t> init_slot_;
  bool init_compiled_ = false;
};

/// Run `steps` cycles from the program's current state.
Trace simulate(Program& program, util::Xoshiro256& rng, std::size_t steps) {
  Trace trace(&program.system());
  for (std::size_t t = 0;; ++t) {
    program.draw_inputs(rng);
    trace.append(program.frame(program.leaves()));
    if (t == steps) return trace;
    program.eval_frame();
    program.latch();
  }
}

}  // namespace

RandomSimulator::RandomSimulator(const ir::TransitionSystem& ts, std::uint64_t seed)
    : ts_(ts), rng_(seed) {}

Assignment RandomSimulator::reset_state() {
  Program program(ts_);
  program.reset(rng_);
  return program.states();
}

Trace RandomSimulator::run(std::size_t steps) {
  Program program(ts_);
  program.compile_frame(nullptr);
  program.reset(rng_);
  return simulate(program, rng_, steps);
}

Trace RandomSimulator::run_from(const Assignment& state_values, std::size_t steps) {
  Program program(ts_);
  program.compile_frame(nullptr);
  program.load_states(state_values);
  return simulate(program, rng_, steps);
}

std::optional<Trace> RandomSimulator::falsify(ir::NodeRef expr, std::size_t steps,
                                              std::size_t restarts) {
  Program program(ts_);
  program.compile_frame(expr);
  // Leaf values of the current run's frames, num_leaves() words per frame.
  std::vector<std::uint64_t> frames;
  for (std::size_t r = 0; r < restarts; ++r) {
    program.reset(rng_);
    frames.clear();
    for (std::size_t t = 0; t <= steps; ++t) {
      program.draw_inputs(rng_);
      program.eval_frame();
      const auto leaves = program.leaves();
      frames.insert(frames.end(), leaves.begin(), leaves.end());
      if (program.watched() == 0) {
        // The witness ends at the violation.
        Trace witness(&ts_);
        for (std::size_t f = 0; f <= t; ++f) {
          witness.append(program.frame(
              std::span(frames).subspan(f * program.num_leaves(), program.num_leaves())));
        }
        return witness;
      }
      program.latch();
    }
  }
  return std::nullopt;
}

std::vector<Assignment> RandomSimulator::sample_states(std::size_t steps,
                                                       std::size_t restarts) {
  Program program(ts_);
  program.compile_frame(nullptr);
  std::vector<Assignment> samples;
  samples.reserve((steps + 1) * restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    program.reset(rng_);
    Trace trace = simulate(program, rng_, steps);
    for (std::size_t f = 0; f < trace.size(); ++f) samples.push_back(std::move(trace.frame(f)));
  }
  return samples;
}

}  // namespace genfv::sim
