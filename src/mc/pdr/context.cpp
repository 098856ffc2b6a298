#include "mc/pdr/context.hpp"

#include "util/status.hpp"

namespace genfv::mc::pdr {

namespace {

void configure(sat::Solver& solver, const EngineOptions& options,
               const std::string& drat_path) {
  solver.set_conflict_budget(options.conflict_budget);
  solver.set_stop_flag(options.stop.get());
  if (!drat_path.empty()) solver.start_proof(drat_path);
}

}  // namespace

QueryContext::QueryContext(const ir::TransitionSystem& ts, ir::NodeRef property,
                           const EngineOptions& options)
    : ts_(ts), options_(options), property_(property) {
  configure(solver_, options, options.drat_path);
  configure(init_solver_, options,
            options.drat_path.empty() ? std::string() : options.drat_path + "-p1");
  // Initiation solver: frame 0 under init. intersects_init runs on
  // assumptions only, so no gate litter ever accumulates here.
  init_unr_ = std::make_unique<Unroller>(ts_, init_solver(), FrameZero::Init);
  for (const ir::NodeRef lemma : options_.lemmas) init_unr_->assert_at(lemma, 0);
  init_prop_ = init_unr_->lit_at(property_, 0);

  bootstrap();
}

bool QueryContext::stopped() const noexcept {
  return options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed);
}

void QueryContext::bootstrap() {
  unr_ = std::make_unique<Unroller>(ts_, solver());

  // Level-0 activation literal, gating the init-value equalities so the same
  // solver answers both init-relative and frame-relative queries. Gates are
  // minted through new_gate(), which freezes them: they are future
  // assumptions, so inprocessing must never eliminate them.
  const sat::Lit init_gate = new_gate();
  activations_.assign(1, init_gate);
  unr_->extend_to(1);
  for (const auto& s : ts_.states()) {
    if (s.init == nullptr) continue;
    const bitblast::Bits state_bits = unr_->bits_at(s.var, 0);
    const bitblast::Bits init_bits = unr_->bits_at(s.init, 0);
    for (std::size_t b = 0; b < state_bits.size(); ++b) {
      solver().add_clause(~init_gate, state_bits[b], ~init_bits[b]);
      solver().add_clause(~init_gate, ~state_bits[b], init_bits[b]);
    }
  }

  // Lemma seeding: proven invariants hold everywhere, i.e. they are clauses
  // of F_∞ and strengthen every frame of every query.
  for (const ir::NodeRef lemma : options_.lemmas) {
    unr_->assert_at(lemma, 0);
    unr_->assert_at(lemma, 1);
  }

  prop0_ = unr_->lit_at(property_, 0);
}

void QueryContext::push_level() {
  db_.push_level();
  activations_.push_back(new_gate());
}

void QueryContext::add_blocked(const Cube& cube, std::size_t level) {
  db_.add_blocked(cube, level);
  add_cube_clause(activations_[level], cube, 0);
}

void QueryContext::graduate(const Cube& cube, std::size_t level) {
  db_.graduate(cube, level);
  add_cube_clause(sat::kUndefLit, cube, 0);
  add_cube_clause(sat::kUndefLit, cube, 1);
}

void QueryContext::add_cube_clause(sat::Lit gate, const Cube& cube, std::size_t frame) {
  std::vector<sat::Lit> clause;
  clause.reserve(cube.size() + 1);
  if (gate != sat::kUndefLit) clause.push_back(~gate);
  for (const StateLit& l : cube) clause.push_back(~cube_lit(frame, l));
  solver().add_clause(std::move(clause));
}

sat::Lit QueryContext::cube_lit(std::size_t frame, const StateLit& l) {
  const bitblast::Bits& bits = unr_->bits_at(ts_.states()[l.state].var, frame);
  return bits[l.bit] ^ l.negated;
}

std::vector<sat::Lit> QueryContext::assumptions(std::size_t level) const {
  GENFV_ASSERT(level < activations_.size(), "frame level out of range");
  std::vector<sat::Lit> out;
  out.reserve(activations_.size() - level);
  for (std::size_t i = level; i < activations_.size(); ++i) {
    out.push_back(activations_[i]);
  }
  return out;
}

sat::LBool QueryContext::solve_frontier_bad(std::size_t frontier) {
  std::vector<sat::Lit> assumptions = this->assumptions(frontier);
  assumptions.push_back(~prop0_);
  return solver().solve(assumptions);
}

void QueryContext::extract_state(Obligation& out) {
  out.cube.clear();
  out.state_values.clear();
  out.input_values.clear();
  for (std::size_t si = 0; si < ts_.states().size(); ++si) {
    const auto& s = ts_.states()[si];
    const bitblast::Bits bits = unr_->bits_at(s.var, 0);
    // `value` packs the state into the same uint64 currency sim::Trace
    // uses. NodeManager::mk_state caps widths at 64 (and prove_all
    // re-checks), so the shift below can never reach UB territory.
    GENFV_ASSERT(bits.size() <= 64, "state wider than the 64-bit value path");
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < bits.size(); ++b) {
      const bool one = solver().model_value(bits[b]) == sat::LBool::True;
      if (one) value |= 1ULL << b;
      out.cube.push_back(
          {static_cast<std::uint32_t>(si), static_cast<std::uint32_t>(b), !one});
    }
    out.state_values.push_back(value);
  }
  for (const ir::NodeRef in : ts_.inputs()) {
    out.input_values.push_back(unr_->model_value(in, 0));
  }
}

sat::LBool QueryContext::intersects_init(const Cube& cube) {
  std::vector<sat::Lit> assumptions;
  assumptions.reserve(cube.size());
  for (const StateLit& l : cube) {
    const bitblast::Bits& bits = init_unr_->bits_at(ts_.states()[l.state].var, 0);
    assumptions.push_back(bits[l.bit] ^ l.negated);
  }
  return init_solver().solve(assumptions);
}

bool QueryContext::may_intersect_init(const Cube& cube) {
  return intersects_init(cube) != sat::LBool::False;
}

sat::LBool QueryContext::relative_query(const Cube& cube, std::size_t level,
                                        bool assume_not_cube,
                                        std::vector<sat::Lit>* core_out) {
  GENFV_ASSERT(level >= 1, "relative queries start at level 1");
  std::vector<sat::Lit> assumptions = this->assumptions(level - 1);
  sat::Lit gate = sat::kUndefLit;
  if (assume_not_cube) {
    gate = new_gate();
    add_cube_clause(gate, cube, 0);
    assumptions.push_back(gate);
  }
  for (const StateLit& l : cube) assumptions.push_back(cube_lit(1, l));
  const sat::LBool answer = solver().solve(assumptions);
  if (answer == sat::LBool::False && core_out != nullptr) {
    *core_out = solver().failed_assumptions();
  }
  if (assume_not_cube) retire_gate(gate);
  return answer;
}

sat::Lit QueryContext::new_gate() {
  // Gates are assumed, retired and re-referenced across solves: freeze them
  // so variable elimination never touches them.
  const sat::Var v = solver().new_var();
  solver().freeze(v);
  return sat::mk_lit(v);
}

void QueryContext::retire_gate(sat::Lit gate) {
  solver().add_clause(~gate);
  ++retired_gates_;
}

}  // namespace genfv::mc::pdr
