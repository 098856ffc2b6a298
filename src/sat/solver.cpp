#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <new>

#include "sat/drat.hpp"
#include "sat/inprocess.hpp"
#include "sat/luby.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::sat {

Solver::Solver() : order_heap_(activity_) {}
Solver::~Solver() = default;

Lit Solver::true_lit() {
  if (true_var_ == kUndefVar) {
    true_var_ = new_var(/*decision=*/false);
    freeze(true_var_);
    const bool ok = add_clause(mk_lit(true_var_));
    GENFV_ASSERT(ok, "asserting the constant-true literal cannot fail");
  }
  return mk_lit(true_var_);
}

void Solver::Clause::assign(std::span<const Lit> lits) {
  GENFV_ASSERT(lits.size() <= count, "a clause never grows in place");
  if (lits.data() != begin()) std::copy(lits.begin(), lits.end(), begin());
  count = static_cast<std::uint32_t>(lits.size());
}

void Solver::ClauseDeleter::operator()(Clause* c) const noexcept {
  c->~Clause();
  ::operator delete(c);
}

Solver::ClausePtr Solver::make_clause(std::span<const Lit> lits, bool learnt) {
  void* memory = ::operator new(sizeof(Clause) + lits.size() * sizeof(Lit));
  ClausePtr c(new (memory) Clause{});
  c->count = static_cast<std::uint32_t>(lits.size());
  c->learnt = learnt;
  std::uninitialized_copy(lits.begin(), lits.end(), c->begin());
  return c;
}

Var Solver::new_var(bool decision) {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(1);  // like MiniSat: first branch assigns "false"
  decision_.push_back(decision ? 1 : 0);
  frozen_.push_back(0);
  eliminated_.push_back(0);
  reason_.push_back(nullptr);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();  // index for mk_lit(v, false)
  watches_.emplace_back();  // index for mk_lit(v, true)
  order_heap_.grow_to(v);
  if (decision) order_heap_.insert(v);
  return v;
}

bool Solver::start_proof(const std::string& path_base) {
  GENFV_ASSERT(num_vars() == 0 && clauses_.empty() && learnts_.empty(),
               "start_proof requires a pristine solver");
  drat_ = std::make_unique<DratWriter>(path_base);
  if (!drat_->ok()) {
    drat_.reset();
    return false;
  }
  return true;
}

void Solver::mark_unsat() {
  ok_ = false;
  if (drat_ != nullptr && !empty_clause_logged_) {
    drat_->add_empty();
    empty_clause_logged_ = true;
    // The derivation is complete at this point — make the certificate
    // durable now rather than at solver teardown.
    drat_->flush();
  }
}

bool Solver::add_clause(std::vector<Lit> lits) {
  add_clause_impl(std::move(lits), ClauseOrigin::kInput);
  return ok_;
}

Solver::Clause* Solver::add_clause_impl(std::vector<Lit> lits, ClauseOrigin origin) {
  GENFV_ASSERT(decision_level() == 0, "clauses may only be added at level 0");
  if (drat_ != nullptr) {
    if (origin == ClauseOrigin::kInput) {
      drat_->input_clause(lits);
    } else if (origin == ClauseOrigin::kDerived) {
      drat_->add(lits);
    }
  }
  if (origin != ClauseOrigin::kRestored && !elim_stack_.empty()) {
    for (const Lit p : lits) {
      if (is_eliminated(var(p))) {
        restore_eliminated();
        break;
      }
    }
  }
  if (!ok_) return nullptr;

  // Normalize in place: sort, drop duplicates and false literals, detect
  // tautologies and already-satisfied clauses.
  std::sort(lits.begin(), lits.end());
  std::size_t kept = 0;
  Lit prev = kUndefLit;
  for (const Lit p : lits) {
    GENFV_ASSERT(var(p) >= 0 && var(p) < num_vars(), "literal out of range");
    if (value(p) == LBool::True || p == ~prev) return nullptr;  // satisfied / tautology
    if (value(p) != LBool::False && p != prev) {
      lits[kept++] = p;
      prev = p;
    }
  }
  lits.resize(kept);

  if (lits.empty()) {
    mark_unsat();
    return nullptr;
  }
  if (lits.size() == 1) {
    unchecked_enqueue(lits[0]);
    if (propagate() != nullptr) mark_unsat();
    return nullptr;
  }

  clauses_.push_back(make_clause(lits, /*learnt=*/false));
  attach_clause(clauses_.back().get());
  return clauses_.back().get();
}

void Solver::restore_eliminated() {
  if (elim_stack_.empty()) return;
  GENFV_ASSERT(decision_level() == 0, "restore runs between solves");
  stats_.restored_vars += elim_stack_.size();
  std::vector<ElimEntry> stack;
  stack.swap(elim_stack_);
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    const auto v = static_cast<std::size_t>(it->v);
    eliminated_[v] = 0;
    decision_[v] = it->was_decision ? 1 : 0;
    if (decision_[v] != 0 && value(it->v) == LBool::Undef && !order_heap_.contains(it->v)) {
      order_heap_.insert(it->v);
    }
  }
  // The stored clauses are already part of the proof's active set (they were
  // never deleted from it), so re-adding emits no DRAT traffic.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    for (auto& cl : it->clauses) {
      if (!ok_) return;
      add_clause_impl(std::move(cl), ClauseOrigin::kRestored);
    }
  }
}

void Solver::extend_model() {
  const auto lit_true = [this](Lit p) {
    return xor_sign(model_[static_cast<std::size_t>(var(p))], sign(p)) == LBool::True;
  };
  // Reverse stack order: an entry's clauses only mention variables that were
  // never eliminated or that a later entry (already processed) covers.
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    LBool val = LBool::False;
    for (const auto& cl : it->clauses) {
      bool satisfied = false;
      Lit mine = kUndefLit;
      for (const Lit p : cl) {
        if (var(p) == it->v) {
          mine = p;
          continue;
        }
        if (lit_true(p)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && mine != kUndefLit) {
        // BVE kept every resolvent, so all clauses unsatisfied-by-others
        // agree on the polarity they need from the eliminated variable.
        val = sign(mine) ? LBool::False : LBool::True;
        break;
      }
    }
    model_[static_cast<std::size_t>(it->v)] = val;
  }
}

void Solver::attach_clause(Clause* c) {
  GENFV_ASSERT(c->size() >= 2, "attach requires a binary-or-larger clause");
  const Clause& cl = *c;
  watches_[static_cast<std::size_t>(index(~cl[0]))].push_back({c, cl[1]});
  watches_[static_cast<std::size_t>(index(~cl[1]))].push_back({c, cl[0]});
}

void Solver::detach_clause(Clause* c) {
  auto remove_from = [c](std::vector<Watcher>& ws) {
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].clause == c) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
    GENFV_ASSERT(false, "detach: watcher not found");
  };
  const Clause& cl = *c;
  remove_from(watches_[static_cast<std::size_t>(index(~cl[0]))]);
  remove_from(watches_[static_cast<std::size_t>(index(~cl[1]))]);
}

void Solver::unchecked_enqueue(Lit p, Clause* from) {
  GENFV_ASSERT(value(p) == LBool::Undef, "enqueue of an assigned literal");
  const auto v = static_cast<std::size_t>(var(p));
  assigns_[v] = lbool_from(!sign(p));
  reason_[v] = from;
  level_[v] = decision_level();
  trail_.push_back(p);
}

Solver::Clause* Solver::propagate() {
  Clause* conflict = nullptr;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; visit clauses watching ~p
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(index(p))];
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[keep++] = w;
        continue;
      }
      Lit* lits = w.clause->begin();
      const std::size_t size = w.clause->size();
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      // Invariant: lits[1] == false_lit.
      const Lit first = lits[0];
      if (first != w.blocker && value(first) == LBool::True) {
        ws[keep++] = {w.clause, first};
        continue;
      }
      // Look for a replacement watch.
      bool found = false;
      for (std::size_t k = 2; k < size; ++k) {
        if (value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>(index(~lits[1]))].push_back({w.clause, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // watcher moved; do not keep here
      // Clause is unit or conflicting under the current assignment.
      ws[keep++] = {w.clause, first};
      if (value(first) == LBool::False) {
        conflict = w.clause;
        qhead_ = trail_.size();
        // Copy the remaining watchers before aborting the scan.
        for (++i; i < ws.size(); ++i) ws[keep++] = ws[i];
        break;
      }
      unchecked_enqueue(first, w.clause);
    }
    ws.resize(keep);
    if (conflict != nullptr) break;
  }
  return conflict;
}

void Solver::var_bump_activity(Var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += var_inc_;
  if (act > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.increased(v);
}

void Solver::cla_bump_activity(Clause& c) {
  c.activity += cla_inc_;
  if (c.activity > 1e20f) {
    for (auto& learnt : learnts_) {
      if (learnt != nullptr) learnt->activity *= 1e-20f;
    }
    cla_inc_ *= 1e-20f;
  }
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_stamp_;
  if (lbd_seen_.size() <= static_cast<std::size_t>(decision_level())) {
    lbd_seen_.resize(static_cast<std::size_t>(decision_level()) + 1, 0);
  }
  std::uint32_t count = 0;
  for (const Lit p : lits) {
    const int l = level_of(var(p));
    if (l > 0 && lbd_seen_[static_cast<std::size_t>(l)] != lbd_stamp_) {
      lbd_seen_[static_cast<std::size_t>(l)] = lbd_stamp_;
      ++count;
    }
  }
  return count;
}

void Solver::analyze(Clause* conflict, std::vector<Lit>& out_learnt, int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // slot for the asserting literal

  int path_count = 0;
  Lit p = kUndefLit;
  int idx = static_cast<int>(trail_.size()) - 1;

  Clause* c = conflict;
  do {
    GENFV_ASSERT(c != nullptr, "conflict analysis walked past a decision");
    if (c->learnt) {
      cla_bump_activity(*c);
      // Age the glue: a learnt clause re-entering analysis gets its LBD
      // recomputed and keeps the minimum (glucose-style aging).
      if (c->lbd > kCoreLbd) {
        const std::uint32_t lbd = compute_lbd(c->lits());
        if (lbd < c->lbd) c->lbd = lbd;
      }
    }
    const Clause& cl = *c;
    for (std::size_t j = (p == kUndefLit) ? 0 : 1; j < cl.size(); ++j) {
      const Lit q = cl[j];
      const auto vq = static_cast<std::size_t>(var(q));
      if (seen_[vq] == 0 && level_[vq] > 0) {
        var_bump_activity(var(q));
        seen_[vq] = 1;
        analyze_toclear_.push_back(q);
        if (level_[vq] >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    while (seen_[static_cast<std::size_t>(var(trail_[static_cast<std::size_t>(idx)]))] == 0) {
      --idx;
    }
    p = trail_[static_cast<std::size_t>(idx)];
    --idx;
    c = reason_of(var(p));
    seen_[static_cast<std::size_t>(var(p))] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Local clause minimization: a literal is redundant when its reason clause
  // is fully covered by the remaining learnt literals (or level-0 facts).
  stats_.learnt_literals += out_learnt.size();
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason_of(var(out_learnt[i])) == nullptr || !literal_redundant(out_learnt[i])) {
      out_learnt[kept++] = out_learnt[i];
    }
  }
  stats_.minimized_literals += out_learnt.size() - kept;
  out_learnt.resize(kept);

  // Determine the backtrack level and move its literal to slot 1 so that
  // both watches are correct after backjumping.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_of(var(out_learnt[i])) > level_of(var(out_learnt[max_i]))) max_i = i;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_of(var(out_learnt[1]));
  }

  for (const Lit q : analyze_toclear_) seen_[static_cast<std::size_t>(var(q))] = 0;
  analyze_toclear_.clear();
}

bool Solver::literal_redundant(Lit p) const {
  const Clause* reason = reason_of(var(p));
  GENFV_ASSERT(reason != nullptr, "redundancy check needs a reason clause");
  for (std::size_t j = 1; j < reason->size(); ++j) {
    const Lit q = (*reason)[j];
    const auto vq = static_cast<std::size_t>(var(q));
    if (seen_[vq] == 0 && level_[vq] > 0) return false;
  }
  return true;
}

void Solver::analyze_final(Lit failed_assumption) {
  core_.clear();
  core_.push_back(failed_assumption);
  if (decision_level() == 0) return;

  seen_[static_cast<std::size_t>(var(failed_assumption))] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[0]; --i) {
    const Lit t = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(var(t));
    if (seen_[v] == 0) continue;
    if (reason_[v] == nullptr) {
      // A decision inside the assumption prefix: it is an assumption literal.
      core_.push_back(t);
    } else {
      const Clause& c = *reason_[v];
      for (std::size_t j = 1; j < c.size(); ++j) {
        const auto vq = static_cast<std::size_t>(var(c[j]));
        if (level_[vq] > 0) seen_[vq] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(var(failed_assumption))] = 0;

  // The negated core is RUP (propagating the core assumptions replays the
  // trail into this conflict), so UNSAT-under-assumption answers are
  // certifiable lemmas too.
  if (drat_ != nullptr) {
    std::vector<Lit> clause;
    clause.reserve(core_.size());
    for (const Lit p : core_) clause.push_back(~p);
    drat_->add(clause);
  }
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  const int bound = trail_lim_[static_cast<std::size_t>(level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(var(p));
    assigns_[v] = LBool::Undef;
    polarity_[v] = sign(p) ? 1 : 0;  // phase saving
    reason_[v] = nullptr;
    if (decision_[v] != 0 && !order_heap_.contains(var(p))) order_heap_.insert(var(p));
  }
  qhead_ = static_cast<std::size_t>(bound);
  trail_.resize(static_cast<std::size_t>(bound));
  trail_lim_.resize(static_cast<std::size_t>(level));
}

Lit Solver::pick_branch_lit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.pop_max();
    if (value(v) == LBool::Undef && decision_[static_cast<std::size_t>(v)] != 0) {
      return mk_lit(v, polarity_[static_cast<std::size_t>(v)] != 0);
    }
  }
  return kUndefLit;
}

bool Solver::locked(const Clause* c) const noexcept {
  const Lit first = (*c)[0];
  return reason_of(var(first)) == c && value(first) == LBool::True;
}

void Solver::reduce_db() {
  ++stats_.reductions;
  const std::size_t target = num_learnts() / 2;

  // LBD tiers: core clauses (lbd <= kCoreLbd) and binaries are immortal;
  // the rest die worst-glue-first, activity as the tie-break. The index
  // yields the unlocked reducible learnts in learn order — the same
  // sequence a scan of the whole database would — dropping entries that
  // aged or shrank out of the tier for good.
  reduce_order_.clear();
  std::size_t kept = 0;
  for (const std::uint32_t pos : reducible_) {
    Clause* c = learnts_[pos].get();
    if (!reducible(*c)) continue;
    reducible_[kept++] = pos;
    if (!locked(c)) reduce_order_.push_back(c);
  }
  reducible_.resize(kept);
  // When every candidate dies, their ranking is moot.
  const std::size_t doomed = std::min(target, reduce_order_.size());
  if (doomed < reduce_order_.size()) {
    std::sort(reduce_order_.begin(), reduce_order_.end(),
              [](const Clause* a, const Clause* b) {
                if (a->lbd != b->lbd) return a->lbd > b->lbd;  // worst glue first
                return a->activity < b->activity;
              });
  }
  for (std::size_t i = 0; i < doomed; ++i) reduce_order_[i]->dead = true;
  if (doomed > 0) {
    // Retire in learn order (the proof's `d` lines and the watch lists
    // depend on it) and free each clause at once.
    kept = 0;
    for (const std::uint32_t pos : reducible_) {
      ClausePtr& c = learnts_[pos];
      if (!c->dead) {
        reducible_[kept++] = pos;
        continue;
      }
      if (drat_ != nullptr) drat_->remove(c->lits());
      detach_clause(c.get());
      c.reset();
      ++learnt_holes_;
    }
    reducible_.resize(kept);
    if (learnt_holes_ > learnts_.size() / 2) compact_learnts();
  }
  stats_.deleted_clauses += doomed;
}

void Solver::compact_learnts() {
  std::size_t kept = 0;
  std::size_t indexed = 0;
  std::size_t next = 0;  // cursor into reducible_ (ascending positions)
  for (std::size_t pos = 0; pos < learnts_.size(); ++pos) {
    const bool in_index = next < reducible_.size() && reducible_[next] == pos;
    if (in_index) ++next;
    ClausePtr& c = learnts_[pos];
    if (c == nullptr || c->dead) {
      // The index entry is already gone (not copied) when the clause is freed.
      c.reset();
      continue;
    }
    if (in_index) reducible_[indexed++] = static_cast<std::uint32_t>(kept);
    if (kept != pos) learnts_[kept] = std::move(c);
    ++kept;
  }
  learnts_.resize(kept);
  reducible_.resize(indexed);
  learnt_holes_ = 0;
}

bool Solver::satisfied(const Clause& c) const noexcept {
  return std::any_of(c.begin(), c.end(), [this](Lit p) { return value(p) == LBool::True; });
}

void Solver::clear_level0_reasons() {
  for (const Lit p : trail_) reason_[static_cast<std::size_t>(var(p))] = nullptr;
}

void Solver::collect_satisfied() {
  GENFV_ASSERT(decision_level() == 0 && qhead_ == trail_.size(),
               "collection runs at level 0 with propagation saturated");
  ++stats_.collections;
  collect_assigns_ = trail_.size();
  collect_props_ = stats_.propagations;

  // Mark first, remembering the watch lists the dead clauses sit in.
  std::vector<std::size_t> lists;
  std::size_t collected = 0;
  const auto mark = [&](Clause& c) {
    c.dead = true;
    ++collected;
    lists.push_back(static_cast<std::size_t>(index(~c[0])));
    lists.push_back(static_cast<std::size_t>(index(~c[1])));
  };
  for (const ClausePtr& c : learnts_) {
    if (c == nullptr || !satisfied(*c)) continue;
    mark(*c);
    if (drat_ != nullptr) drat_->remove(c->lits());
  }
  for (const ClausePtr& c : clauses_) {
    if (!satisfied(*c)) continue;
    mark(*c);
    ++collected_originals_;
  }
  stats_.collected_clauses += collected;
  if (collected == 0) return;

  // Order-preserving purge: the survivors of each list keep their relative
  // order (a swap-based detach would reorder them and move the search).
  std::sort(lists.begin(), lists.end());
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  for (const std::size_t i : lists) {
    std::erase_if(watches_[i], [](const Watcher& w) { return w.clause->dead; });
  }
  std::erase_if(clauses_, [](const ClausePtr& c) { return c->dead; });
  compact_learnts();
  clear_level0_reasons();
}

LBool Solver::search(int conflicts_before_restart, const std::vector<Lit>& assumptions) {
  int conflict_count = 0;
  std::vector<Lit> learnt;

  while (true) {
    Clause* conflict = propagate();
    if (conflict != nullptr) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        mark_unsat();
        return LBool::False;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      const std::uint32_t lbd = compute_lbd(learnt);
      if (drat_ != nullptr) drat_->add(learnt);
      if (util::telemetry_on()) {
        static util::Histogram& lbd_hist =
            util::metrics().histogram("sat.lbd", /*first_bound=*/1, /*buckets=*/16);
        lbd_hist.observe(lbd);
      }
      // Never backjump into the assumption prefix below a still-needed
      // assumption decision: cancel_until handles replay because the
      // decision loop below re-enqueues assumptions in order.
      cancel_until(backtrack_level);
      ++stats_.learnt_clauses;
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0]);
      } else {
        ClausePtr clause = make_clause(learnt, /*learnt=*/true);
        clause->lbd = lbd;
        attach_clause(clause.get());
        cla_bump_activity(*clause);
        unchecked_enqueue(learnt[0], clause.get());
        if (reducible(*clause)) reducible_.push_back(static_cast<std::uint32_t>(learnts_.size()));
        learnts_.push_back(std::move(clause));
      }
      var_decay_activity();
      cla_decay_activity();
      continue;
    }

    // No conflict.
    const bool budget_exhausted =
        conflict_budget_ >= 0 &&
        stats_.conflicts - conflicts_at_solve_start_ >=
            static_cast<std::uint64_t>(conflict_budget_);
    if (conflict_count >= conflicts_before_restart || budget_exhausted ||
        interrupted()) {
      ++stats_.restarts;
      cancel_until(0);
      return LBool::Undef;
    }
    if (static_cast<double>(num_learnts()) - static_cast<double>(trail_.size()) >=
        max_learnts_) {
      reduce_db();
    }

    Lit next = kUndefLit;
    while (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit p = assumptions[static_cast<std::size_t>(decision_level())];
      if (value(p) == LBool::True) {
        new_decision_level();  // dummy level keeps indices aligned
      } else if (value(p) == LBool::False) {
        analyze_final(p);
        return LBool::False;
      } else {
        next = p;
        break;
      }
    }
    if (next == kUndefLit) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next == kUndefLit) return LBool::True;  // all variables assigned
    }
    new_decision_level();
    unchecked_enqueue(next);
  }
}

LBool Solver::solve(const std::vector<Lit>& assumptions) {
  GENFV_TRACE_SPAN("sat", "solve");
  if (!util::telemetry_on()) return solve_core(assumptions);
  // Publish per-call deltas to the registry so the heartbeat and
  // --metrics-out see live solver effort, not just end-of-run stats.
  static util::Counter& solves = util::metrics().counter("sat.solves");
  static util::Counter& conflicts = util::metrics().counter("sat.conflicts");
  static util::Counter& reductions = util::metrics().counter("sat.reductions");
  static util::Counter& collections = util::metrics().counter("sat.collections");
  static util::Counter& decisions = util::metrics().counter("sat.decisions");
  static util::Counter& propagations = util::metrics().counter("sat.propagations");
  static util::Counter& restarts = util::metrics().counter("sat.restarts");
  static util::Counter& solve_ns = util::metrics().counter("sat.solve_ns");
  static util::Histogram& latency =
      util::metrics().histogram("sat.solve_latency_ns", /*first_bound=*/1024, /*buckets=*/28);
  const SolverStats before = stats_;
  const std::uint64_t t0 = util::telemetry_now_ns();
  const LBool status = solve_core(assumptions);
  const std::uint64_t elapsed = util::telemetry_now_ns() - t0;
  solves.increment();
  conflicts.add(stats_.conflicts - before.conflicts);
  reductions.add(stats_.reductions - before.reductions);
  collections.add(stats_.collections - before.collections);
  decisions.add(stats_.decisions - before.decisions);
  propagations.add(stats_.propagations - before.propagations);
  restarts.add(stats_.restarts - before.restarts);
  solve_ns.add(elapsed);
  latency.observe(elapsed);
  return status;
}

void Solver::simplify_now() {
  GENFV_ASSERT(decision_level() == 0, "inprocessing runs between solves, at level 0");
  if (!ok_) return;
  Inprocessor(*this).run();
  last_inprocess_conflicts_ = stats_.conflicts;
  last_inprocess_solves_ = stats_.solves;
  collected_originals_ = 0;  // the session swept whatever collection left
}

LBool Solver::solve_core(const std::vector<Lit>& assumptions) {
  model_.clear();
  core_.clear();
  ++stats_.solves;

  // Assumption variables become part of the caller-visible interface: pin
  // them against elimination for good, restoring first if a previous session
  // already eliminated one.
  if (!elim_stack_.empty()) {
    for (const Lit p : assumptions) {
      if (is_eliminated(var(p))) {
        restore_eliminated();
        break;
      }
    }
  }
  for (const Lit p : assumptions) freeze(var(p));

  if (!ok_) return LBool::False;

  cancel_until(0);
  if (propagate() != nullptr) {
    mark_unsat();
    return LBool::False;
  }

  // Both marks start at 0: before its first call a solver has propagated
  // only its level-0 units, so a one-shot solver collects only when those
  // outnumber its clauses.
  if (trail_.size() > collect_assigns_ &&
      stats_.propagations - collect_props_ >= clauses_.size() + num_learnts()) {
    collect_satisfied();
  }

  conflicts_at_solve_start_ = stats_.conflicts;
  max_learnts_ = std::max(static_cast<double>(scheduled_clauses()) / 3.0, 4000.0);

  // Inprocessing runs here, once per call, never inside the restart loop:
  // a session pays for itself only over later queries (kInprocessMinSolves).
  // Its cost scales with the database (occurrence lists over every clause,
  // BVE over every variable), so the conflict interval scales with it too:
  // the huge low-conflict CNFs of deep BMC unrollings would otherwise spend
  // more time simplifying than solving, while the small hot databases of PDR
  // queries want the short fixed floor. A stopped or zero-budget call
  // searches nothing, so it runs no session either.
  const std::uint64_t inprocess_interval = std::max(
      kInprocessInterval, static_cast<std::uint64_t>(scheduled_clauses()) / 4);
  if (conflict_budget_ != 0 && !interrupted() &&
      stats_.solves - last_inprocess_solves_ >= kInprocessMinSolves &&
      stats_.conflicts - last_inprocess_conflicts_ >= inprocess_interval) {
    simplify_now();
    if (!ok_) return LBool::False;
  }

  LBool status = LBool::Undef;
  for (int restarts = 0; status == LBool::Undef; ++restarts) {
    const bool budget_exhausted =
        conflict_budget_ >= 0 &&
        stats_.conflicts - conflicts_at_solve_start_ >=
            static_cast<std::uint64_t>(conflict_budget_);
    if (budget_exhausted || interrupted()) break;
    const double base = luby(2.0, restarts) * 100.0;
    status = search(static_cast<int>(base), assumptions);
  }

  if (status == LBool::True) {
    model_ = assigns_;
    if (!elim_stack_.empty()) extend_model();
  }
  cancel_until(0);
  return status;
}

LBool Solver::model_value(Lit p) const noexcept {
  const auto v = static_cast<std::size_t>(var(p));
  if (v >= model_.size()) return LBool::Undef;
  return xor_sign(model_[v], sign(p));
}

LBool Solver::model_value(Var v) const noexcept {
  const auto i = static_cast<std::size_t>(v);
  return i < model_.size() ? model_[i] : LBool::Undef;
}

}  // namespace genfv::sat
