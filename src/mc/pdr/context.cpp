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
                           const EngineOptions& options, FrameDb& db)
    : ts_(ts), options_(options), db_(db), property_(property) {
  configure(solver_, options, options.drat_path);
  configure(init_solver_, options,
            options.drat_path.empty() ? std::string() : options.drat_path + "-p1");
  // Initiation solver: frame 0 under init. intersects_init runs on
  // assumptions only, so no gate litter ever accumulates here.
  init_unr_ = std::make_unique<Unroller>(ts_, init_solver(), FrameZero::Init);
  for (const ir::NodeRef lemma : options_.lemmas) init_unr_->assert_at(lemma, 0);
  init_prop_ = init_unr_->lit_at(property_, 0);

  bootstrap();
  sync();
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

void QueryContext::sync() {
  std::vector<FrameDb::Event> events;
  synced_epoch_ = db_.events_since(synced_epoch_, &events);
  for (const FrameDb::Event& event : events) apply_event(event);
}

void QueryContext::apply_event(const FrameDb::Event& event) {
  switch (event.kind) {
    case FrameDb::Event::Kind::PushLevel:
      activations_.push_back(new_gate());
      break;
    case FrameDb::Event::Kind::Block:
      assert_blocked(event.cube, event.level);
      break;
    case FrameDb::Event::Kind::Graduate:
      assert_infinity(event.cube);
      break;
    case FrameDb::Event::Kind::SeedMay:
      assert_may(event.cube, event.level);
      break;
    case FrameDb::Event::Kind::RetractMay: {
      const auto it = may_.find(event.level);
      if (it != may_.end()) {
        retire_gate(it->second.gate);
        may_.erase(it);
      }
      break;
    }
  }
}

void QueryContext::assert_blocked(const Cube& cube, std::size_t level) {
  GENFV_ASSERT(level < activations_.size(), "blocked level not mirrored yet");
  std::vector<sat::Lit> clause{~activations_[level]};
  for (const StateLit& l : cube) clause.push_back(~cube_lit(0, l));
  solver().add_clause(std::move(clause));
}

void QueryContext::assert_infinity(const Cube& cube) {
  for (const std::size_t frame : {std::size_t{0}, std::size_t{1}}) {
    std::vector<sat::Lit> clause;
    clause.reserve(cube.size());
    for (const StateLit& l : cube) clause.push_back(~cube_lit(frame, l));
    solver().add_clause(std::move(clause));
  }
}

void QueryContext::assert_may(const Cube& cube, std::size_t id) {
  // Frame 0 only: a may clause strengthens the predecessor frame of a query
  // exactly like a blocked clause would, but behind its own gate so it can
  // be retracted (and excluded from clean re-runs) independently.
  const sat::Lit gate = new_gate();
  std::vector<sat::Lit> clause{~gate};
  for (const StateLit& l : cube) clause.push_back(~cube_lit(0, l));
  solver().add_clause(std::move(clause));
  may_[id] = {gate, cube};
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

sat::LBool QueryContext::solve_frames(std::vector<sat::Lit> assumptions,
                                      std::vector<sat::Lit>* core_out) {
  if (may_.empty()) {
    const sat::LBool answer = solver().solve(assumptions);
    if (answer == sat::LBool::False && core_out != nullptr) {
      *core_out = solver().failed_assumptions();
    }
    return answer;
  }

  std::vector<sat::Lit> with_may = assumptions;
  with_may.reserve(with_may.size() + may_.size());
  for (const auto& [id, entry] : may_) with_may.push_back(entry.gate);
  const sat::LBool answer = solver().solve(with_may);
  if (answer != sat::LBool::False) return answer;  // SAT model / budget: sound as-is

  // UNSAT: accept only a candidate-free core. failed_assumptions is a subset
  // of the assumptions whose conjunction is already inconsistent, so a core
  // without may gates certifies the clean fact directly.
  bool contaminated = false;
  for (const sat::Lit p : solver().failed_assumptions()) {
    for (const auto& [id, entry] : may_) {
      if (entry.gate == p) {
        contaminated = true;
        break;
      }
    }
    if (contaminated) break;
  }
  if (!contaminated) {
    if (core_out != nullptr) *core_out = solver().failed_assumptions();
    return sat::LBool::False;
  }

  // The blockage leans on unproven candidates: re-ask without them. A clean
  // SAT means some candidate excluded a real (backward-reachable) state —
  // a spurious "blocked" answer; retract every candidate that state violates
  // so the board stops paying for the fallback.
  const sat::LBool clean = solver().solve(assumptions);
  if (clean == sat::LBool::False && core_out != nullptr) {
    *core_out = solver().failed_assumptions();
  }
  if (clean == sat::LBool::True) retract_violated_candidates();
  return clean;
}

void QueryContext::retract_violated_candidates() {
  std::vector<std::size_t> hit;
  for (const auto& [id, entry] : may_) {
    bool violated = true;
    for (const StateLit& l : entry.cube) {
      if (solver().model_value(cube_lit(0, l)) != sat::LBool::True) {
        violated = false;
        break;
      }
    }
    if (violated) hit.push_back(id);
  }
  // Strike through the database: sub-limit strikes are bookkeeping only; a
  // repeat offender's RetractMay event retires its gate here at the next
  // sync.
  for (const std::size_t id : hit) db_.strike_may(id);
}

sat::LBool QueryContext::solve_frontier_bad(std::size_t frontier) {
  sync();
  std::vector<sat::Lit> assumptions = this->assumptions(frontier);
  assumptions.push_back(~prop0_);
  return solve_frames(std::move(assumptions), nullptr);
}

sat::LBool QueryContext::may_consecution_query(
    const std::vector<std::size_t>& survivor_ids, const Cube& cube, std::size_t level) {
  sync();
  GENFV_ASSERT(level >= 1, "may-proof consecution starts at level 1");
  std::vector<sat::Lit> assumptions = this->assumptions(level - 1);
  // Every survivor is live in the mirror: within a may-proof pass only its
  // own initiation filter retracts, and it drops those candidates first.
  for (const std::size_t id : survivor_ids) assumptions.push_back(may_.at(id).gate);
  for (const StateLit& l : cube) assumptions.push_back(cube_lit(1, l));
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
  sync();
  GENFV_ASSERT(level >= 1, "relative queries start at level 1");
  std::vector<sat::Lit> assumptions = this->assumptions(level - 1);
  sat::Lit gate = sat::kUndefLit;
  if (assume_not_cube) {
    gate = new_gate();
    std::vector<sat::Lit> clause{~gate};
    for (const StateLit& l : cube) clause.push_back(~cube_lit(0, l));
    solver().add_clause(std::move(clause));
    assumptions.push_back(gate);
  }
  for (const StateLit& l : cube) assumptions.push_back(cube_lit(1, l));
  const sat::LBool answer = solve_frames(std::move(assumptions), core_out);
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
