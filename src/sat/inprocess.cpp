#include "sat/inprocess.hpp"

#include <algorithm>

#include "sat/drat.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::sat {

namespace {
/// Per-session pass budgets (literal-visit / resolution / clause counts):
/// generous for the model checker's formula sizes, hard caps for anything
/// pathological a fuzzer or external CNF might feed in.
constexpr std::uint64_t kSubsumeBudget = 4'000'000;
constexpr std::uint64_t kResolutionBudget = 1'000'000;
constexpr std::size_t kMaxOccSide = 12;         // BVE: occurrences per polarity
constexpr std::size_t kMaxResolventLits = 24;   // BVE: resolvent size cap
constexpr std::size_t kVivifyClauseLimit = 1000;
constexpr std::size_t kMaxVivifySize = 32;
}  // namespace

void Inprocessor::clear_level0_reasons() {
  // Level-0 assignments are permanent facts; their reason pointers are never
  // dereferenced by analysis (which skips level 0) but would dangle once the
  // session deletes or shrinks clauses. Null them.
  for (const Lit p : s_.trail_) s_.reason_[static_cast<std::size_t>(var(p))] = nullptr;
}

void Inprocessor::run() {
  GENFV_TRACE_SPAN("sat", "inprocess");
  GENFV_ASSERT(s_.decision_level() == 0, "inprocessing requires decision level 0");
  if (s_.propagate() != nullptr) {
    s_.mark_unsat();
    return;
  }
  clear_level0_reasons();
  s_.compact_learnts();  // the passes below walk learnts_ and expect no holes
  top_level_simplify();
  if (s_.ok_) {
    build_occurrence_lists();
    subsume_all();
  }
  if (s_.ok_) eliminate_vars();
  sweep();
  occ_.clear();
  if (s_.ok_) vivify();
  sweep();
  clear_level0_reasons();
  ++s_.stats_.inprocessings;
  GENFV_ASSERT(s_.qhead_ == s_.trail_.size() || !s_.ok_,
               "inprocessing must leave propagation saturated");
}

void Inprocessor::kill(Clause* c) {
  GENFV_ASSERT(!c->dead, "double kill");
  s_.detach_clause(c);
  c->dead = true;
  if (c->learnt && s_.drat_ != nullptr) s_.drat_->remove(c->lits());
}

void Inprocessor::sweep() {
  const auto dead = [](const Solver::ClausePtr& c) { return c->dead; };
  s_.clauses_.erase(std::remove_if(s_.clauses_.begin(), s_.clauses_.end(), dead),
                    s_.clauses_.end());
  s_.compact_learnts();
}

void Inprocessor::top_level_simplify() {
  const auto satisfied = [this](const Clause* c) {
    for (const Lit p : c->lits()) {
      if (s_.value(p) == LBool::True) return true;
    }
    return false;
  };

  // Learnts: drop the satisfied ones (false-literal stripping there buys
  // little and would cost proof traffic).
  for (const auto& c : s_.learnts_) {
    if (!c->dead && satisfied(c.get())) kill(c.get());
  }

  // Originals: drop satisfied clauses, strip level-0-false literals. The
  // stripped version needs no proof line — the checker derives the same
  // facts from the still-active units.
  for (std::size_t i = 0; i < s_.clauses_.size(); ++i) {
    Clause* c = s_.clauses_[i].get();
    if (c->dead) continue;
    if (satisfied(c)) {
      kill(c);
      continue;
    }
    bool has_false = false;
    for (const Lit p : c->lits()) {
      if (s_.value(p) == LBool::False) {
        has_false = true;
        break;
      }
    }
    if (!has_false) continue;
    s_.detach_clause(c);
    const Lit* kept_end = std::remove_if(
        c->begin(), c->end(), [this](Lit p) { return s_.value(p) == LBool::False; });
    c->assign({c->begin(), kept_end});
    GENFV_ASSERT(c->size() > 0, "an all-false clause would have conflicted");
    if (c->size() == 1) {
      const Lit unit = (*c)[0];
      c->dead = true;
      s_.unchecked_enqueue(unit);
      if (s_.propagate() != nullptr) {
        s_.mark_unsat();
        return;
      }
      clear_level0_reasons();
      continue;
    }
    s_.attach_clause(c);
  }
}

void Inprocessor::build_occurrence_lists() {
  occ_.assign(static_cast<std::size_t>(s_.num_vars()), {});
  const auto reg = [this](const Solver::ClausePtr& c) {
    if (c->dead) return;
    c->sig = signature(c->lits());
    for (const Lit p : c->lits()) occ_[static_cast<std::size_t>(var(p))].push_back(c.get());
  };
  for (const auto& c : s_.clauses_) reg(c);
  for (const auto& c : s_.learnts_) reg(c);
}

Inprocessor::Subsumes Inprocessor::subsumes(const Clause* c, const Clause* d,
                                            Lit* strengthen_out,
                                            std::uint64_t* budget) const {
  if (c->size() > d->size()) return Subsumes::kNo;
  if ((c->sig & ~d->sig) != 0) return Subsumes::kNo;
  const std::uint64_t cost = c->size() * d->size();
  *budget -= std::min(*budget, cost);
  Lit flipped = kUndefLit;
  for (const Lit p : c->lits()) {
    bool found = false;
    for (const Lit q : d->lits()) {
      if (q == p) {
        found = true;
        break;
      }
      if (q == ~p) {
        if (flipped != kUndefLit) return Subsumes::kNo;  // two flips: no relation
        flipped = q;
        found = true;
        break;
      }
    }
    if (!found) return Subsumes::kNo;
  }
  if (flipped == kUndefLit) return Subsumes::kSubsumes;
  *strengthen_out = flipped;
  return Subsumes::kStrengthens;
}

void Inprocessor::strengthen(Clause* d, Lit rem) {
  ++s_.stats_.strengthened_clauses;
  std::vector<Lit> new_lits;
  new_lits.reserve(d->size() - 1);
  for (const Lit p : d->lits()) {
    if (p != rem) new_lits.push_back(p);
  }
  if (s_.drat_ != nullptr) {
    s_.drat_->add(new_lits);
    if (d->learnt) s_.drat_->remove(d->lits());
  }
  s_.detach_clause(d);
  if (new_lits.size() == 1) {
    d->dead = true;
    const Lit unit = new_lits[0];
    if (s_.value(unit) == LBool::False) {
      s_.mark_unsat();
      return;
    }
    if (s_.value(unit) == LBool::Undef) {
      s_.unchecked_enqueue(unit);
      if (s_.propagate() != nullptr) {
        s_.mark_unsat();
        return;
      }
      clear_level0_reasons();
    }
    return;
  }
  d->assign(new_lits);
  d->sig = signature(d->lits());
  s_.attach_clause(d);
}

void Inprocessor::subsume_all() {
  // Originals act as subsumers; victims may be originals or learnts.
  std::vector<Clause*> queue;
  queue.reserve(s_.clauses_.size());
  for (const auto& c : s_.clauses_) {
    if (!c->dead) queue.push_back(c.get());
  }
  std::uint64_t budget = kSubsumeBudget;

  for (std::size_t qi = 0; qi < queue.size() && budget > 0 && s_.ok_; ++qi) {
    Clause* c = queue[qi];
    if (c->dead || c->size() == 0) continue;
    // Scan the occurrence list of c's rarest variable.
    Var best = var((*c)[0]);
    for (const Lit p : c->lits()) {
      if (occ_[static_cast<std::size_t>(var(p))].size() <
          occ_[static_cast<std::size_t>(best)].size()) {
        best = var(p);
      }
    }
    // Copy: strengthen() and kill() may mutate the list we iterate.
    const std::vector<Clause*> candidates = occ_[static_cast<std::size_t>(best)];
    for (Clause* d : candidates) {
      if (d == c || d->dead || c->dead || budget == 0 || !s_.ok_) continue;
      Lit rem = kUndefLit;
      switch (subsumes(c, d, &rem, &budget)) {
        case Subsumes::kNo:
          break;
        case Subsumes::kSubsumes:
          ++s_.stats_.subsumed_clauses;
          kill(d);
          break;
        case Subsumes::kStrengthens:
          strengthen(d, rem);
          // A strengthened original can now subsume further clauses.
          if (!d->dead && !d->learnt) queue.push_back(d);
          break;
      }
    }
  }
}

bool Inprocessor::resolve(const Clause* p, const Clause* n, Var v,
                          std::vector<Lit>* out) const {
  out->clear();
  for (const Lit q : p->lits()) {
    if (var(q) != v) out->push_back(q);
  }
  for (const Lit q : n->lits()) {
    if (var(q) != v) out->push_back(q);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  for (std::size_t i = 1; i < out->size(); ++i) {
    if ((*out)[i] == ~(*out)[i - 1]) return false;  // tautology
  }
  return true;
}

void Inprocessor::eliminate_vars() {
  std::uint64_t budget = kResolutionBudget;
  std::vector<Lit> resolvent;
  for (Var v = 0; v < s_.num_vars() && budget > 0 && s_.ok_; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s_.frozen_[vi] != 0 || s_.eliminated_[vi] != 0) continue;
    if (s_.value(v) != LBool::Undef) continue;

    // Partition the live occurrences: originals by polarity (resolvent
    // sources), learnts separately (dropped outright on elimination).
    std::vector<Clause*> pos;
    std::vector<Clause*> neg;
    std::vector<Clause*> learnts;
    bool oversize = false;
    for (Clause* c : occ_[vi]) {
      if (c->dead) continue;
      bool mentions = false;
      bool positive = false;
      bool satisfied = false;
      for (const Lit q : c->lits()) {
        if (var(q) == v) {
          mentions = true;
          positive = !sign(q);
        }
        if (s_.value(q) == LBool::True) satisfied = true;
      }
      if (!mentions) continue;  // stale entry after strengthening
      if (c->learnt) {
        learnts.push_back(c);
        continue;
      }
      if (satisfied) {
        // Satisfied originals still mention v; they must leave the database
        // with it (no live clause may reference an eliminated variable).
        kill(c);
        ++s_.stats_.subsumed_clauses;
        continue;
      }
      (positive ? pos : neg).push_back(c);
      if (pos.size() > kMaxOccSide || neg.size() > kMaxOccSide) {
        oversize = true;
        break;
      }
    }
    if (oversize) continue;
    if (pos.empty() && neg.empty() && learnts.empty()) continue;  // unused var

    // Count the non-tautological resolvents; bail out on growth.
    std::vector<std::vector<Lit>> resolvents;
    bool abort = false;
    for (const Clause* cp : pos) {
      for (const Clause* cn : neg) {
        budget -= std::min<std::uint64_t>(budget, cp->size() + cn->size());
        if (!resolve(cp, cn, v, &resolvent)) continue;
        if (resolvent.size() > kMaxResolventLits ||
            resolvents.size() >= pos.size() + neg.size() || budget == 0) {
          abort = true;
          break;
        }
        resolvents.push_back(resolvent);
      }
      if (abort) break;
    }
    if (abort) continue;

    // Commit: record the originals for restore/model-extension, log the
    // resolvents as proof adds, swap the clause sets.
    Solver::ElimEntry entry;
    entry.v = v;
    entry.was_decision = s_.decision_[vi] != 0;
    for (const Clause* c : pos) entry.clauses.emplace_back(c->begin(), c->end());
    for (const Clause* c : neg) entry.clauses.emplace_back(c->begin(), c->end());
    for (Clause* c : pos) kill(c);
    for (Clause* c : neg) kill(c);
    for (Clause* c : learnts) kill(c);
    s_.eliminated_[vi] = 1;
    s_.decision_[vi] = 0;
    s_.elim_stack_.push_back(std::move(entry));
    ++s_.stats_.eliminated_vars;

    for (std::vector<Lit>& r : resolvents) {
      Clause* nc = s_.add_clause_impl(std::move(r), Solver::ClauseOrigin::kDerived);
      if (!s_.ok_) return;
      if (nc != nullptr) {
        nc->sig = signature(nc->lits());
        for (const Lit q : nc->lits()) {
          occ_[static_cast<std::size_t>(var(q))].push_back(nc);
        }
      } else {
        // The resolvent collapsed to a unit or was absorbed; new level-0
        // facts may have appeared.
        clear_level0_reasons();
      }
    }
  }
}

void Inprocessor::vivify() {
  std::vector<Clause*> candidates;
  for (const auto& c : s_.clauses_) {
    if (!c->dead && c->size() >= 3 && c->size() <= kMaxVivifySize) {
      candidates.push_back(c.get());
    }
  }
  if (candidates.empty()) return;
  const std::size_t count = std::min(candidates.size(), kVivifyClauseLimit);
  const std::size_t start = s_.vivify_cursor_ % candidates.size();
  s_.vivify_cursor_ += count;

  std::vector<Lit> lits;
  std::vector<Lit> kept;
  for (std::size_t n = 0; n < count && s_.ok_; ++n) {
    Clause* c = candidates[(start + n) % candidates.size()];
    if (c->dead) continue;

    // Pre-clean against level-0 facts accumulated this session.
    bool satisfied = false;
    lits.clear();
    for (const Lit p : c->lits()) {
      const LBool val = s_.value(p);
      if (val == LBool::True) {
        satisfied = true;
        break;
      }
      if (val != LBool::False) lits.push_back(p);
    }
    if (satisfied) {
      kill(c);
      continue;
    }
    const bool precleaned = lits.size() < c->size();
    if (lits.size() < 3) {
      // Too short to probe; just apply the pre-clean if it shrank.
      if (!precleaned) continue;
      s_.detach_clause(c);
      GENFV_ASSERT(!lits.empty(), "an all-false clause would have conflicted");
      if (lits.size() == 1) {
        c->dead = true;
        if (c->learnt && s_.drat_ != nullptr) s_.drat_->remove(c->lits());
        s_.unchecked_enqueue(lits[0]);
        if (s_.propagate() != nullptr) {
          s_.mark_unsat();
          return;
        }
        clear_level0_reasons();
      } else {
        c->assign(lits);
        s_.attach_clause(c);
      }
      continue;
    }

    // Probe: assume the negation literal by literal. A conflict or an
    // implied literal proves the kept prefix (plus that literal) is itself
    // a clause of the formula — shorter than c when it drops anything.
    s_.detach_clause(c);
    kept.clear();
    bool changed = precleaned;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      const Lit l = lits[i];
      const LBool val = s_.value(l);
      if (val == LBool::True) {
        // ¬kept implies l: clause := kept ∪ {l}.
        kept.push_back(l);
        if (i + 1 < lits.size()) changed = true;
        break;
      }
      if (val == LBool::False) {
        // ¬kept implies ¬l: l is redundant in c.
        changed = true;
        continue;
      }
      if (i + 1 == lits.size()) {
        // Nothing to learn from probing the last literal.
        kept.push_back(l);
        break;
      }
      s_.new_decision_level();
      s_.unchecked_enqueue(~l);
      if (s_.propagate() != nullptr) {
        // ¬(kept ∪ {l}) is contradictory: clause := kept ∪ {l} (RUP).
        kept.push_back(l);
        if (i + 1 < lits.size()) changed = true;
        break;
      }
      kept.push_back(l);
    }
    s_.cancel_until(0);

    if (!changed) {
      s_.attach_clause(c);
      continue;
    }
    ++s_.stats_.vivified_clauses;
    GENFV_ASSERT(!kept.empty(), "vivification cannot empty a clause");
    if (s_.drat_ != nullptr) {
      s_.drat_->add(kept);
      if (c->learnt) s_.drat_->remove(c->lits());
    }
    if (kept.size() == 1) {
      c->dead = true;
      if (s_.value(kept[0]) == LBool::False) {
        s_.mark_unsat();
        return;
      }
      if (s_.value(kept[0]) == LBool::Undef) {
        s_.unchecked_enqueue(kept[0]);
        if (s_.propagate() != nullptr) {
          s_.mark_unsat();
          return;
        }
        clear_level0_reasons();
      }
      continue;
    }
    c->assign(kept);
    s_.attach_clause(c);
  }
}

}  // namespace genfv::sat
