/// Portfolio engine tests: first-conclusive-verdict scheduling of the
/// threaded race, cooperative stop-flag
/// cancellation of every member engine, system cloning across NodeManagers,
/// result translation back into the caller's system, the lemma-file round
/// trip through LemmaManager, and flow-level engine selection.

#include <gtest/gtest.h>

#include <atomic>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/lemma_io.hpp"
#include "flow/lemma_manager.hpp"
#include "genai/simulated_llm.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "mc/engine.hpp"
#include "mc/portfolio.hpp"
#include "sat/solver.hpp"
#include "sva/compiler.hpp"
#include "util/status.hpp"

namespace genfv::mc {
namespace {

using ir::NodeRef;

bool conclusive(Verdict v) { return v != Verdict::Unknown; }

/// Width-4 counter pair in lockstep; `bound_prop` makes a falsifiable
/// property available (`a != 10` fails at frame 10).
flow::VerificationTask counter_task(const std::string& property) {
  return flow::VerificationTask::from_rtl(
      "toy_counters", "two lockstep counters",
      R"(module toy_counters (input clk, rst, output logic [3:0] a, b);
  always_ff @(posedge clk) begin
    if (rst) begin
      a <= 4'b0;
      b <= 4'b0;
    end else begin
      a <= a + 1;
      b <= b + 1;
    end
  end
endmodule
)",
      {{"target", property}});
}

// --- SystemClone -------------------------------------------------------------

TEST(SystemClone, DeepCopyPreservesStructureAndRoundTripsExpressions) {
  auto task = designs::make_task("token_ring");
  ir::SystemClone clone(task.ts);
  const ir::TransitionSystem& copy = clone.system();

  EXPECT_NE(task.ts.nm_ptr().get(), copy.nm_ptr().get());
  ASSERT_EQ(copy.inputs().size(), task.ts.inputs().size());
  ASSERT_EQ(copy.states().size(), task.ts.states().size());
  ASSERT_EQ(copy.constraints().size(), task.ts.constraints().size());
  ASSERT_EQ(copy.num_properties(), task.ts.num_properties());
  copy.validate();

  // Declaration order and leaf identity carry over; every copied expression
  // translates back to the *pointer-identical* original node (hash-consing
  // makes structural equality pointer equality within one manager). Note the
  // serialized text may differ: commutative operands sort by node id, and
  // ids are manager-local.
  for (std::size_t i = 0; i < task.ts.states().size(); ++i) {
    const auto& orig = task.ts.states()[i];
    const auto& cloned = copy.states()[i];
    EXPECT_EQ(cloned.var->name(), orig.var->name());
    EXPECT_EQ(cloned.var->width(), orig.var->width());
    EXPECT_EQ(clone.to_original(cloned.next), orig.next);
    if (orig.init != nullptr) EXPECT_EQ(clone.to_original(cloned.init), orig.init);
  }
  for (std::size_t i = 0; i < task.ts.num_properties(); ++i) {
    EXPECT_EQ(clone.to_original(copy.property(i).expr), task.ts.property(i).expr);
  }
  for (const NodeRef expr : task.target_exprs()) {
    const NodeRef there = clone.to_clone(expr);
    EXPECT_NE(there, expr);
    EXPECT_EQ(clone.to_original(there), expr);
  }
}

TEST(SystemClone, TranslateRejectsUnmappedLeaves) {
  ir::TransitionSystem a;
  const NodeRef x = a.add_state("x", 4);
  ir::TransitionSystem b;
  std::unordered_map<NodeRef, NodeRef> empty_map;
  EXPECT_THROW(ir::translate(a.nm().mk_eq(x, a.nm().mk_const(0, 4)), b.nm(), empty_map),
               UsageError);
}

// --- cooperative cancellation ------------------------------------------------

TEST(StopFlag, PresetFlagYieldsUnknownForEveryEngine) {
  for (const EngineKind kind :
       {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr}) {
    auto task = designs::make_task("token_ring");
    EngineOptions options;
    options.max_steps = 64;
    options.stop = std::make_shared<std::atomic<bool>>(true);
    auto engine = make_engine(kind, task.ts, options);
    const EngineResult result = engine->prove_all(task.target_exprs());
    EXPECT_EQ(result.verdict, Verdict::Unknown) << to_string(kind);
    // A cancelled run must not have done any real exploration.
    EXPECT_LE(result.depth, 1u) << to_string(kind);
  }
}

TEST(Portfolio, WinnerCancelsLosers) {
  // At an absurd step budget, BMC alone would unroll for a very long time;
  // the only way it reports far fewer frames is the winner's stop flag.
  auto task = designs::make_task("token_ring");
  EngineOptions options;
  options.max_steps = 100000;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());

  EXPECT_EQ(result.verdict, Verdict::Proven);
  // With live exchange, k-induction can absorb PDR's published clauses and
  // close first — either prover may take the flag, never BMC.
  EXPECT_TRUE(result.winner == "pdr" || result.winner == "k-induction")
      << result.winner;
  ASSERT_EQ(result.breakdown.size(), 3u);
  for (const EngineBreakdown& member : result.breakdown) {
    if (member.engine == "bmc") {
      EXPECT_EQ(member.verdict, Verdict::Unknown);
      EXPECT_LT(member.depth, 100000u);  // cancelled, not exhausted
    }
  }
}

TEST(Portfolio, ExternalStopCancelsTheWholeRace) {
  auto task = designs::make_task("token_ring");
  EngineOptions options;
  options.max_steps = 64;
  options.stop = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
}

// --- first-conclusive-verdict scheduling -------------------------------------

TEST(Portfolio, AgreesWithSingleEnginesOnTheRegistry) {
  const std::vector<std::string> names = {"sync_counters", "sequencer", "token_ring",
                                          "updown_pair",   "lfsr16",    "gray_counter"};
  constexpr std::size_t kMaxSteps = 12;
  for (const std::string& name : names) {
    std::optional<Verdict> single_conclusive;
    for (const EngineKind kind :
         {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr}) {
      auto task = designs::make_task(name);
      auto engine = make_engine(kind, task.ts, {.max_steps = kMaxSteps});
      const EngineResult r = engine->prove_all(task.target_exprs());
      if (conclusive(r.verdict)) {
        // Soundness: conclusive single-engine verdicts can never disagree.
        if (single_conclusive.has_value()) EXPECT_EQ(*single_conclusive, r.verdict);
        single_conclusive = r.verdict;
      }
    }
    auto task = designs::make_task(name);
    auto portfolio = make_engine(EngineKind::Portfolio, task.ts, {.max_steps = kMaxSteps});
    const EngineResult r = portfolio->prove_all(task.target_exprs());
    if (single_conclusive.has_value()) {
      EXPECT_EQ(r.verdict, *single_conclusive) << name;
      EXPECT_FALSE(r.winner.empty()) << name;
    } else {
      EXPECT_EQ(r.verdict, Verdict::Unknown) << name;
      EXPECT_TRUE(r.winner.empty()) << name;
    }
    EXPECT_EQ(r.breakdown.size(), 3u) << name;
  }
}

TEST(Portfolio, FalsifiedCexTranslatesBackToTheOriginalSystem) {
  auto task = counter_task("property bound; a != 4'd10; endproperty");
  EngineOptions options;
  options.max_steps = 16;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());

  EXPECT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.cex.has_value());
  // The trace must be expressed over the *caller's* system (the threaded
  // portfolio found it on a clone) and be a genuine execution of it.
  EXPECT_EQ(result.cex->system(), &task.ts);
  EXPECT_TRUE(result.cex->is_consistent());
  const NodeRef target = task.target_exprs().front();
  ASSERT_TRUE(result.cex->first_violation(target).has_value());
}

// --- stats conservation ------------------------------------------------------

/// Per-counter check that the merged portfolio stats equal the sum of the
/// member breakdowns, over EngineStats' one counter list. `seconds` is not
/// on it by design: the merged value is the race's wall clock, not the sum
/// of concurrent member clocks.
testing::AssertionResult stats_conserved(const EngineResult& result) {
  EngineStats sum;
  for (const EngineBreakdown& member : result.breakdown) sum += member.stats;
  testing::AssertionResult conserved = testing::AssertionSuccess();
  EngineStats::for_each_counter(
      [&](const char* name, auto merged, auto summed) {
        if (conserved && merged != summed) {
          conserved = testing::AssertionFailure()
                      << name << ": merged result reports " << merged
                      << " but the member breakdowns sum to " << summed;
        }
      },
      result.stats, sum);
  return conserved;
}

TEST(StatsConservation, CounterListCoversEveryField) {
  // Every EngineStats member but `seconds` is a 64-bit counter, so a member
  // missing from the counter list (and hence from +=, publish_metrics and
  // the bench JSON) shows up as a size mismatch.
  EngineStats stats;
  std::size_t listed = 0;
  EngineStats::for_each_counter([&](const char*, auto&) { ++listed; }, stats);
  EXPECT_EQ(sizeof(EngineStats), listed * sizeof(std::uint64_t) + sizeof(double));
}

TEST(StatsConservation, ThreadedPortfolioMergeEqualsMemberSum) {
  // Default PDR inside a threaded race: every effort counter a member
  // accumulated must survive into the merged stats — nothing lost, nothing
  // double-counted.
  auto task = designs::make_task("sequencer");
  EngineOptions options;
  options.max_steps = 12;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  ASSERT_EQ(result.breakdown.size(), 3u);
  EXPECT_TRUE(stats_conserved(result));
  // The run did real work, so conservation is not vacuous.
  EXPECT_GT(result.stats.sat_calls, 0u);
  EXPECT_GT(result.stats.conflicts, 0u);
  EXPECT_GT(result.stats.retired_gates, 0u);
}

TEST(StatsConservation, AbsorbAccumulatesEveryMappedSolverCounter) {
  // EngineStats::absorb is the single funnel from solver-level to
  // engine-level counters; distinct primes catch any crossed-wire or
  // dropped-field regression in the mapping.
  sat::SolverStats solver;
  solver.solves = 2;
  solver.decisions = 3;
  solver.propagations = 5;
  solver.conflicts = 7;
  solver.restarts = 11;
  solver.learnt_clauses = 13;

  EngineStats stats;
  stats.absorb(solver);
  stats.absorb(solver);  // absorption must accumulate, not overwrite
  EXPECT_EQ(stats.sat_calls, 4u);  // SolverStats::solves maps to sat_calls
  EXPECT_EQ(stats.decisions, 6u);
  EXPECT_EQ(stats.propagations, 10u);
  EXPECT_EQ(stats.conflicts, 14u);
  EXPECT_EQ(stats.restarts, 22u);
  EXPECT_EQ(stats.learnt_clauses, 26u);
}

TEST(Portfolio, SeededLemmasReachEveryMemberClone) {
  // sync_counters is not inductive and not clause-compact, so no member
  // concludes alone at this bound; with the equality lemma translated into
  // every clone, k-induction closes immediately.
  auto task = designs::make_task("sync_counters");
  sva::PropertyCompiler compiler(task.ts);
  const NodeRef lemma = compiler.compile_expr("count1 == count2");

  EngineOptions options;
  options.max_steps = 6;
  options.lemmas = {lemma};
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_FALSE(result.winner.empty());
}

TEST(Portfolio, RejectsItselfAsMember) {
  auto task = designs::make_task("token_ring");
  EngineOptions options;
  options.portfolio_engines = {EngineKind::Pdr, EngineKind::Portfolio};
  EXPECT_THROW(make_engine(EngineKind::Portfolio, task.ts, options), UsageError);
}

TEST(Portfolio, UnknownRaceForwardsAStepCexForTheRepairLoop) {
  // No member concludes on sync_counters without help, but k-induction
  // produces the induction-step artefact — the portfolio must forward it so
  // the GenAI repair loop stays usable behind EngineKind::Portfolio.
  auto task = designs::make_task("sync_counters");
  EngineOptions options;
  options.max_steps = 4;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  ASSERT_TRUE(result.step_cex.has_value());
  EXPECT_GT(result.step_cex->size(), 0u);
}

// --- live lemma exchange -----------------------------------------------------

TEST(LemmaMailbox, FetchSkipsOwnClausesAndHonorsCallerCursor) {
  LemmaMailbox mailbox(2);
  mailbox.publish(0, {{{0, 0, false}}});
  mailbox.publish(1, {{{0, 1, true}}});
  mailbox.publish(0, {{{0, 2, false}}});

  std::size_t cursor = 0;
  const auto first = mailbox.fetch(0, &cursor);  // member 0 sees only member 1's
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].lits.size(), 1u);
  EXPECT_EQ(first[0].lits[0].bit, 1u);
  EXPECT_TRUE(first[0].lits[0].negated);
  EXPECT_TRUE(mailbox.fetch(0, &cursor).empty());  // cursor advanced past all

  std::size_t fresh = 0;  // a fresh consumer re-reads the full backlog
  EXPECT_EQ(mailbox.fetch(1, &fresh).size(), 2u);

  mailbox.note_absorbed(1, 2);
  EXPECT_EQ(mailbox.published_by(0), 2u);
  EXPECT_EQ(mailbox.published_by(1), 1u);
  EXPECT_EQ(mailbox.absorbed_by(1), 2u);
  EXPECT_EQ(mailbox.size(), 3u);
}

TEST(LemmaMailbox, MaterializeRebuildsTheClauseAndRejectsMisfits) {
  auto task = designs::make_task("token_ring");
  ASSERT_FALSE(task.ts.states().empty());
  const std::uint32_t width = task.ts.states()[0].var->width();

  const ExchangedClause good{{{0, 0, false}}};
  const NodeRef expr = materialize(good, task.ts);
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->width(), 1u);

  // Out-of-range state index / bit index: "does not fit", never a throw —
  // consumers skip such clauses (they came from an incompatible system).
  const std::uint32_t states = static_cast<std::uint32_t>(task.ts.states().size());
  EXPECT_EQ(materialize({{{states, 0, false}}}, task.ts), nullptr);
  EXPECT_EQ(materialize({{{0, width, false}}}, task.ts), nullptr);
  EXPECT_EQ(materialize(ExchangedClause{}, task.ts), nullptr);
}

TEST(TranslateBetween, CrossCloneRoundTrip) {
  // The mailbox itself never carries NodeRefs, but translate_between is the
  // general clone-to-clone path: expressions move between two sibling clones
  // without touching the original's manager.
  auto task = designs::make_task("token_ring");
  ir::SystemClone a(task.ts);
  ir::SystemClone b(task.ts);
  for (const NodeRef expr : task.target_exprs()) {
    const NodeRef in_a = a.to_clone(expr);
    const NodeRef in_b = ir::translate_between(in_a, a.system(), b.system());
    EXPECT_EQ(b.to_original(in_b), expr);
    EXPECT_EQ(in_b, b.to_clone(expr));  // hash-consing: same node either way
  }
}

TEST(Exchange, PdrPublishedClausesProveTokenRingForAStuckKInduction) {
  // Publisher and consumer live in *different* systems with different
  // NodeManagers — the clause transport is manager-neutral end to end.
  auto mailbox = std::make_shared<LemmaMailbox>(2);

  auto pdr_task = designs::make_task("token_ring");
  EngineOptions pdr_opts;
  pdr_opts.max_steps = 16;
  pdr_opts.exchange_mailbox = mailbox;
  pdr_opts.exchange_slot = 0;
  auto pdr = make_engine(EngineKind::Pdr, pdr_task.ts, pdr_opts);
  EXPECT_EQ(pdr->prove_all(pdr_task.target_exprs()).verdict, Verdict::Proven);
  EXPECT_GE(mailbox->published_by(0), 1u);

  auto kind_task = designs::make_task("token_ring");
  {
    EngineOptions alone;
    alone.max_steps = 16;
    auto engine = make_engine(EngineKind::KInduction, kind_task.ts, alone);
    EXPECT_EQ(engine->prove_all(kind_task.target_exprs()).verdict, Verdict::Unknown);
  }
  EngineOptions kind_opts;
  kind_opts.max_steps = 16;
  kind_opts.exchange_mailbox = mailbox;
  kind_opts.exchange_slot = 1;
  auto kind = make_engine(EngineKind::KInduction, kind_task.ts, kind_opts);
  const EngineResult result = kind->prove_all(kind_task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_GE(mailbox->absorbed_by(1), 1u);
  // The absorbed invariant clauses are exported so a k-induction win keeps
  // feeding the lemma loop exactly like a PDR win.
  EXPECT_FALSE(result.invariant.empty());
}

TEST(Exchange, NeverChangesAConcludedVerdict) {
  // Exchange may upgrade Unknown to a conclusive verdict (that is the
  // point), but where the exchange-off portfolio already concluded, the
  // exchange-on portfolio must conclude identically — absorbed clauses are
  // invariants, so they can never mask a real counterexample or fake a
  // proof.
  const std::vector<std::string> names = {"sync_counters", "sequencer", "token_ring",
                                          "updown_pair",   "lfsr16",    "gray_counter"};
  for (const std::string& name : names) {
    Verdict verdicts[2];
    for (const bool exchange : {false, true}) {
      auto task = designs::make_task(name);
      EngineOptions options;
      options.max_steps = 12;
      options.exchange = exchange;
      auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
      verdicts[exchange ? 1 : 0] = engine->prove_all(task.target_exprs()).verdict;
    }
    if (conclusive(verdicts[0])) {
      EXPECT_EQ(verdicts[1], verdicts[0]) << name;
    }
  }
}

TEST(Exchange, DisabledExchangeKeepsTheMailboxOut) {
  auto task = designs::make_task("token_ring");
  EngineOptions options;
  options.max_steps = 16;
  options.exchange = false;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.winner, "pdr");  // nobody absorbs, PDR converges alone
  for (const EngineBreakdown& member : result.breakdown) {
    EXPECT_EQ(member.lemmas_published, 0u) << member.engine;
    EXPECT_EQ(member.lemmas_absorbed, 0u) << member.engine;
  }
}

TEST(Exchange, InprocessOptionReachesMembersThroughWholesaleCopy) {
  // Regression for the hand-copied member options: any knob added to
  // EngineOptions must reach the members. `sat_inprocess` is exactly such a
  // knob — with it on, some member inprocesses on hamming74; with it off, no
  // member's solvers may inprocess even once.
  for (const bool inprocess : {true, false}) {
    auto task = designs::make_task("hamming74");
    EngineOptions options;
    options.max_steps = 12;
    options.sat_inprocess = inprocess;
    auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
    const EngineResult result = engine->prove_all(task.target_exprs());
    ASSERT_EQ(result.breakdown.size(), 3u);
    EXPECT_EQ(result.verdict, Verdict::Proven) << "inprocess=" << inprocess;
    std::uint64_t inprocessings = 0;
    for (const EngineBreakdown& member : result.breakdown) {
      if (!inprocess) EXPECT_EQ(member.stats.inprocessings, 0u) << member.engine;
      inprocessings += member.stats.inprocessings;
    }
    if (inprocess) EXPECT_GT(inprocessings, 0u);
  }
}

TEST(Exchange, BmcAbsorbsPublishedClauses) {
  // A proven clause (here: the mutual-exclusion of two token bits, a true
  // invariant of the ring) published by "someone else" must be absorbed by
  // BMC without disturbing its bounded search.
  auto task = designs::make_task("token_ring");
  std::uint32_t token_index = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < task.ts.states().size(); ++i) {
    if (task.ts.states()[i].var->name() == "token") {
      token_index = i;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  auto mailbox = std::make_shared<LemmaMailbox>(2);
  mailbox->publish(0, {{{token_index, 0, false}, {token_index, 1, false}}});

  EngineOptions options;
  options.max_steps = 4;
  options.exchange_mailbox = mailbox;
  options.exchange_slot = 1;
  auto bmc = make_engine(EngineKind::Bmc, task.ts, options);
  const EngineResult result = bmc->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);  // no CEX exists: property holds
  EXPECT_EQ(mailbox->absorbed_by(1), 1u);
}

TEST(Exchange, AbsorbFilterAdmitsEachManagerNeutralFormOnce) {
  AbsorbFilter filter;
  const ExchangedClause clause{{{0, 1, false}, {2, 0, true}}};
  EXPECT_TRUE(filter.admit(clause));
  EXPECT_FALSE(filter.admit(clause));  // exact duplicate

  // Genuinely different literals pass regardless of publisher or order of
  // arrival.
  EXPECT_TRUE(filter.admit({{{0, 1, true}}}));
}

TEST(Exchange, ConsumersDedupeTheRepublishedBacklog) {
  // Publishers may post the same clause more than once, so the board can
  // fill with copies. Each consumer *run* must assert (and count) every
  // distinct clause exactly once — and a fresh run, with fresh solvers,
  // absorbs each distinct clause exactly once more.
  auto task = designs::make_task("token_ring");
  std::uint32_t token_index = 0;
  for (std::uint32_t i = 0; i < task.ts.states().size(); ++i) {
    if (task.ts.states()[i].var->name() == "token") token_index = i;
  }

  auto mailbox = std::make_shared<LemmaMailbox>(2);
  const ExchangedClause mutex01{{{token_index, 0, false}, {token_index, 1, false}}};
  const ExchangedClause mutex02{{{token_index, 0, false}, {token_index, 2, false}}};
  mailbox->publish(0, mutex01);
  mailbox->publish(0, mutex01);  // re-published
  mailbox->publish(0, mutex02);
  mailbox->publish(0, mutex01);  // and again
  ASSERT_EQ(mailbox->size(), 4u);

  EngineOptions options;
  options.max_steps = 4;
  options.exchange_mailbox = mailbox;
  options.exchange_slot = 1;
  auto first = make_engine(EngineKind::Bmc, task.ts, options);
  EXPECT_EQ(first->prove_all(task.target_exprs()).verdict, Verdict::Unknown);
  EXPECT_EQ(mailbox->absorbed_by(1), 2u);  // 2 distinct facts, not 4 entries

  // A fresh engine re-reads the backlog and absorbs the 2 distinct facts
  // once more — linear in distinct clauses per run, no matter how many
  // duplicates the board accumulates.
  auto second = make_engine(EngineKind::Bmc, task.ts, options);
  EXPECT_EQ(second->prove_all(task.target_exprs()).verdict, Verdict::Unknown);
  EXPECT_EQ(mailbox->absorbed_by(1), 4u);
}

// --- satellite regressions ---------------------------------------------------

TEST(Portfolio, ZeroStepBudgetIsUniformlyUnknown) {
  // A zero budget buys no exploration in any member: the portfolio reports
  // Unknown without running anyone.
  auto task = counter_task("property bound; a != 4'd0; endproperty");  // fails at t0
  EngineOptions options;
  options.max_steps = 0;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
  ASSERT_EQ(result.breakdown.size(), 3u);
  for (const EngineBreakdown& member : result.breakdown) {
    EXPECT_EQ(member.note, "zero step budget");
    EXPECT_EQ(member.stats.sat_calls, 0u);
  }
}

TEST(WideRegisters, ElaborationRejectsWiderThan64WithLocation) {
  const std::string rtl = R"(module wide80 (input clk, rst, output logic [79:0] x);
  always_ff @(posedge clk) begin
    if (rst) x <= 0; else x <= x;
  end
endmodule
)";
  try {
    flow::VerificationTask::from_rtl("wide80", "", rtl, {{"t", "x == 0"}});
    FAIL() << "80-bit register must be rejected";
  } catch (const Error& e) {
    // Three layers can catch this (parser range check, elaborator
    // declaration check, NodeManager width discipline); whichever fires
    // must name the 64-bit limit, not corrupt state silently downstream.
    const std::string what = e.what();
    EXPECT_TRUE(what.find("wider than 64") != std::string::npos ||
                what.find("1..64") != std::string::npos ||
                what.find("[1,64]") != std::string::npos)
        << what;
  }
}

TEST(WideRegisters, SixtyFourBitBoundaryRunsThroughPdrStatePacking) {
  // Width 64 is the last legal width: PDR's extract_state packs bit 63 with
  // `1ULL << 63`, the edge of the uint64 value path. A falsifiable property
  // forces a counterexample through that packing.
  const std::string rtl = R"(module wide64 (input clk, rst, input logic [63:0] in,
                output logic [63:0] x);
  always_ff @(posedge clk) begin
    if (rst) x <= 64'd0; else x <= in;
  end
endmodule
)";
  auto task = flow::VerificationTask::from_rtl("wide64", "", rtl,
                                               {{"t", "!x[63]"}});
  EngineOptions options;
  options.max_steps = 4;
  auto pdr = make_engine(EngineKind::Pdr, task.ts, options);
  const EngineResult result = pdr->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_TRUE(result.cex->is_consistent());
}

// --- lemma-file round trip ---------------------------------------------------

TEST(LemmaFile, PortfolioInvariantRoundTripsThroughLemmaManager) {
  auto task = designs::make_task("token_ring");
  auto engine = make_engine(EngineKind::Portfolio, task.ts, {.max_steps = 16});
  const EngineResult result = engine->prove_all(task.target_exprs());
  ASSERT_EQ(result.verdict, Verdict::Proven);
  ASSERT_FALSE(result.invariant.empty());

  std::vector<std::string> svas;
  for (const NodeRef clause : result.invariant) svas.push_back(ir::to_string(clause));
  const std::string path = testing::TempDir() + "genfv_portfolio_lemmas.txt";
  flow::write_lemma_file(path, task.name, svas);

  const std::vector<std::string> loaded = flow::read_lemma_file(path);
  ASSERT_EQ(loaded.size(), svas.size());

  // Re-ingestion re-proves every clause before assuming it.
  auto task2 = designs::make_task("token_ring");
  flow::LemmaManager manager(task2, {{.max_k = 8}, flow::ReviewPolicy{}, true});
  const auto outcomes = manager.process(loaded);
  ASSERT_EQ(outcomes.size(), loaded.size());
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status == flow::CandidateStatus::Proven ||
                outcome.status == flow::CandidateStatus::Duplicate)
        << outcome.sva << " -> " << to_string(outcome.status);
  }
  EXPECT_FALSE(manager.lemma_exprs().empty());
}

TEST(LemmaFile, ParserSkipsCommentsAndBlankLines) {
  const std::string text =
      "# genfv-lemmas 1\n# design: x\n\n a == b \n\n# trailing comment\nc != d\n";
  const std::vector<std::string> lemmas = flow::parse_lemma_file(text);
  ASSERT_EQ(lemmas.size(), 2u);
  EXPECT_EQ(lemmas[0], "a == b");
  EXPECT_EQ(lemmas[1], "c != d");
}

TEST(LemmaFile, RenderRejectsLemmasThatCannotRoundTrip) {
  // A lemma that flattens to a blank or comment line would silently vanish
  // on re-parse; the writer must refuse instead.
  EXPECT_THROW(flow::render_lemma_file("d", {"a == b", "  \n  "}), UsageError);
  EXPECT_THROW(flow::render_lemma_file("d", {"# not a lemma"}), UsageError);
  EXPECT_THROW(flow::render_lemma_file("d", {""}), UsageError);
}

TEST(LemmaFile, CountHeaderRoundTripsAndDetectsTruncation) {
  const std::string text = flow::render_lemma_file("d", {"a == b", "c != d"});
  EXPECT_NE(text.find("# lemmas: 2"), std::string::npos);
  EXPECT_EQ(flow::parse_lemma_file(text).size(), 2u);

  // Drop the last line, as a truncated download or hand edit would.
  const std::string truncated = text.substr(0, text.rfind("c != d"));
  EXPECT_THROW(flow::parse_lemma_file(truncated), UsageError);
  EXPECT_THROW(flow::parse_lemma_file("# lemmas: nonsense\na == b\n"), UsageError);

  // Files without the header stay accepted (older emitters, hand-written).
  EXPECT_EQ(flow::parse_lemma_file("a == b\n").size(), 1u);
}

}  // namespace
}  // namespace genfv::mc

// --- flow-level engine selection ---------------------------------------------

namespace genfv::flow {
namespace {

/// Always-empty LLM: the flow must close without any model help.
class SilentLlm : public genai::LlmClient {
 public:
  genai::Completion complete(const genai::Prompt&) override {
    ++calls_;
    return {};
  }
  std::string model_name() const override { return "silent"; }
  std::size_t calls() const noexcept { return calls_; }

 private:
  std::size_t calls_ = 0;
};

TEST(FlowEngineSelection, PortfolioProvesTokenRingAndExportsLemmas) {
  auto task = designs::make_task("token_ring");
  SilentLlm llm;
  FlowOptions options;
  options.engine.max_k = 8;
  options.target_engine = mc::EngineKind::Portfolio;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);

  EXPECT_EQ(report.engine, "portfolio");
  EXPECT_TRUE(report.all_targets_proven());
  EXPECT_EQ(llm.calls(), 0u);  // the portfolio's PDR member wins outright
  // The winner's inductive invariant comes back as admitted lemmas — the
  // bidirectional exchange works behind the portfolio façade too.
  EXPECT_FALSE(report.admitted_lemmas.empty());
}

}  // namespace
}  // namespace genfv::flow
