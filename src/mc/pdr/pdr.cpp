#include "mc/pdr/pdr.hpp"

#include <unordered_set>

#include "mc/pdr/blocking.hpp"
#include "mc/pdr/context.hpp"
#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"
#include "mc/pdr/propagate.hpp"
#include "sim/interpreter.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc::pdr {

namespace {

/// True iff an Input leaf is reachable from `root`. PDR treats the initial
/// states as a pure state predicate; input-dependent initial values would
/// make "is this cube initial" ill-defined.
bool references_input(ir::NodeRef root) {
  std::vector<ir::NodeRef> stack{root};
  std::unordered_set<ir::NodeRef> seen;
  while (!stack.empty()) {
    const ir::NodeRef n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (n->op() == ir::Op::Input) return true;
    for (const ir::NodeRef c : n->children()) stack.push_back(c);
  }
  return false;
}

/// Bounds-check a mailbox clause against `ts` and return its canonical cube;
/// nullopt when it does not fit (foreign-system clause) or is a tautology.
std::optional<Cube> mailbox_cube(const ExchangedClause& clause,
                                 const ir::TransitionSystem& ts) {
  Cube cube;
  cube.reserve(clause.lits.size());
  for (const ExchangedLit& lit : clause.lits) {
    if (lit.state >= ts.states().size()) return std::nullopt;
    if (lit.bit >= ts.states()[lit.state].var->width()) return std::nullopt;
    cube.push_back({lit.state, lit.bit, lit.negated});
  }
  if (!canonicalize_clause_cube(cube)) return std::nullopt;
  return cube;
}

}  // namespace

PdrEngine::PdrEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {}

EngineResult PdrEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  util::Stopwatch watch;
  EngineResult result;

  const ir::NodeRef prop = conjoin_properties(ts_, properties);

  for (const auto& s : ts_.states()) {
    if (s.init != nullptr && references_input(s.init)) {
      throw UsageError("pdr requires input-independent initial values (state '" +
                       s.var->name() + "')");
    }
    if (s.var->width() > 64) {
      // Unreachable through NodeManager (which enforces the 1..64 width
      // discipline), but cheap insurance for any future wide-vector IR:
      // extract_state packs each state into a uint64_t.
      throw UsageError("pdr cannot pack state '" + s.var->name() + "' (" +
                       std::to_string(s.var->width()) + " bits) into 64-bit values");
    }
  }

  // All mutable state of the run: the solver-neutral frame database and
  // obligation arena, the one query context mirroring the database, and the
  // candidate intake cursor plus consumer-side dedupe for the mailbox.
  FrameDb db;
  QueryContext ctx(ts_, prop, options_, db);
  db.push_level();  // level 1: the first frontier
  ObligationQueue queue;
  std::size_t mailbox_cursor = 0;
  AbsorbFilter absorb_filter;

  auto finish = [&](Verdict verdict, std::size_t depth) {
    result.verdict = verdict;
    result.depth = depth;
    result.stats.absorb(ctx.solver());
    result.stats.absorb(ctx.init_solver());
    result.stats.retired_gates += ctx.retired_gates();
    result.stats.candidates_seeded += db.may_seeded();
    result.stats.candidates_graduated += db.may_graduated();
    result.stats.candidates_retracted += db.may_retracted();
    result.stats.seconds = watch.seconds();
    return result;
  };

  // Candidate-lemma seeding: admit clause-shaped unproven candidates as
  // "may" clauses (docs/lemmas.md). Non-clause candidates are skipped — the
  // frame database trades exclusively in state-bit clauses.
  if (options_.pdr_seed_candidates) {
    for (const ir::NodeRef cand : options_.pdr_candidate_lemmas) {
      if (const auto cube = cube_of_clause(ts_, cand)) db.seed_may(*cube);
    }
  }

  // Mailbox intake (pdr_seed_candidates only): every mailbox clause is an
  // invariant of this very system and joins F_∞ directly — each publisher's
  // F_∞ set is mutually inductive relative to the shared lemmas, so the
  // exported certificate stays inductive (docs/lemmas.md).
  auto poll_mailbox = [&] {
    if (!options_.pdr_seed_candidates || options_.exchange_mailbox == nullptr) return;
    const auto fetched =
        options_.exchange_mailbox->fetch(options_.exchange_slot, &mailbox_cursor);
    std::size_t absorbed = 0;
    for (const ExchangedClause& clause : fetched) {
      if (!absorb_filter.admit(clause)) continue;
      const auto cube = mailbox_cube(clause, ts_);
      if (!cube.has_value()) continue;
      db.add_infinity(*cube);
      ++absorbed;
    }
    if (absorbed != 0) {
      options_.exchange_mailbox->note_absorbed(options_.exchange_slot, absorbed);
    }
  };

  // 0-step: a property violation inside the initial states themselves.
  {
    const sat::LBool answer = ctx.init_solver().solve({~ctx.init_prop_lit()});
    if (answer == sat::LBool::True) {
      result.cex = ctx.init_unroller().extract_trace(1);
      return finish(Verdict::Falsified, 0);
    }
    if (answer == sat::LBool::Undef) return finish(Verdict::Unknown, 0);
  }

  // Reconstruct a trace from a level-0 obligation chain: the chain's states
  // run from an initial state to the property violation, and each stored
  // input vector drives its state into the next one. Obligations carry only
  // manager-neutral values (state and input values per link).
  auto build_cex = [&](std::size_t index) {
    sim::Trace trace(&ts_);
    for (std::ptrdiff_t at = static_cast<std::ptrdiff_t>(index); at >= 0;
         at = queue.at(static_cast<std::size_t>(at)).parent) {
      const Obligation& o = queue.at(static_cast<std::size_t>(at));
      sim::Assignment env;
      for (std::size_t si = 0; si < ts_.states().size(); ++si) {
        env[ts_.states()[si].var] = o.state_values[si];
      }
      for (std::size_t ii = 0; ii < ts_.inputs().size(); ++ii) {
        env[ts_.inputs()[ii]] = o.input_values[ii];
      }
      trace.append(std::move(env));
    }
    return trace;
  };

  static util::Counter& may_proof_ns = util::metrics().counter("pdr.may_proof_ns");
  static util::Counter& blocking_ns = util::metrics().counter("pdr.blocking_ns");
  static util::Counter& propagate_ns = util::metrics().counter("pdr.propagate_ns");
  static util::Counter& push_infinity_ns = util::metrics().counter("pdr.push_infinity_ns");
  static util::Gauge& frontier_gauge = util::metrics().gauge("pdr.frontier");

  GENFV_TRACE_SPAN("pdr", "prove_all");
  while (true) {
    const std::size_t frontier = db.frontier();
    if (util::telemetry_on()) frontier_gauge.set(static_cast<std::int64_t>(frontier));
    if (ctx.stopped()) return finish(Verdict::Unknown, frontier);

    // Absorb new candidate material before the SAT-heavy phases: proven
    // clauses strengthen every query unconditionally, fresh candidates ride
    // along as may clauses until the may-proof pass decides them.
    poll_mailbox();

    // May-proof pass *before* blocking: candidates that are relatively
    // inductive at the current frontier graduate into real frame clauses
    // right away — before any frontier query can implicate a still-unproven
    // candidate in a spurious "blocked" answer and retract it. A true
    // candidate thus gets its graduation chance first; only speculative ones
    // survive into the blocking phase as may assumptions.
    {
      GENFV_TRACE_SPAN("pdr", "may_proof");
      util::ScopedTimerNs timer(may_proof_ns);
      if (!may_proof_pass(ctx, db, options_)) {
        return finish(Verdict::Unknown, frontier);
      }
    }

    // Strengthen the frontier: block every state that violates the property
    // (and every predecessor chain those states drag in).
    std::size_t cex_index = 0;
    {
      GENFV_TRACE_SPAN("pdr", "blocking");
      util::ScopedTimerNs timer(blocking_ns);
      switch (strengthen_frontier(ctx, db, queue, kMaxObligations, frontier, &cex_index)) {
        case BlockOutcome::Blocked: break;
        case BlockOutcome::Counterexample:
          result.cex = build_cex(cex_index);
          return finish(Verdict::Falsified, result.cex->size() - 1);
        case BlockOutcome::Budget: return finish(Verdict::Unknown, frontier);
      }
    }

    // Propagation: push clauses that remain inductive at their level.
    {
      GENFV_TRACE_SPAN("pdr", "propagate");
      util::ScopedTimerNs timer(propagate_ns);
      if (propagate_all(ctx, db) == PropagateOutcome::Budget) {
        return finish(Verdict::Unknown, frontier);
      }
    }

    // Clauses that propagated all the way to the frontier are candidates for
    // F_∞: certify the mutually-inductive subset invariant and publish it to
    // the exchange mailbox — this is where racing members learn from PDR
    // long before this run converges.
    {
      GENFV_TRACE_SPAN("pdr", "push_infinity");
      util::ScopedTimerNs timer(push_infinity_ns);
      if (!push_to_infinity(ctx, db, options_)) {
        return finish(Verdict::Unknown, frontier);
      }
    }

    // Convergence: an empty level means two adjacent frames agree, and the
    // agreeing frame is an inductive invariant implying the property. F_∞
    // clauses are part of every frame, so they belong to the certificate.
    for (std::size_t i = 1; i < frontier; ++i) {
      if (!db.cubes_at(i).empty()) continue;
      for (const Cube& cube : db.infinity()) {
        result.invariant.push_back(clause_expr(ts_, cube));
      }
      for (std::size_t j = i + 1; j <= frontier; ++j) {
        for (const Cube& cube : db.cubes_at(j)) {
          result.invariant.push_back(clause_expr(ts_, cube));
        }
      }
      return finish(Verdict::Proven, frontier);
    }

    if (frontier >= options_.max_steps) return finish(Verdict::Unknown, frontier);
    GENFV_TRACE_INSTANT("pdr", "push_level");
    db.push_level();
  }
}

}  // namespace genfv::mc::pdr
