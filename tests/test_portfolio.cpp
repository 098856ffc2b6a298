/// Portfolio engine tests: the sequential schedule (a k-induction probe at
/// k = 1, then PDR on the caller's thread), which stage concludes, stats
/// summed over both stages, cooperative stop-flag cancellation of every
/// engine, the lemma-file round trip through LemmaManager, and flow-level
/// engine selection.

#include <gtest/gtest.h>

#include <atomic>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/lemma_io.hpp"
#include "flow/lemma_manager.hpp"
#include "genai/simulated_llm.hpp"
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

// --- the schedule -------------------------------------------------------------

TEST(Portfolio, PresetStopFlagSkipsPdr) {
  // The probe sees the raised flag before its first query, and PDR never
  // starts: no SAT call is made at all (a PDR run would at least pose its
  // 0-step initiation query).
  auto task = designs::make_task("token_ring");
  EngineOptions options;
  options.max_steps = 64;
  options.stop = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
  EXPECT_EQ(result.stats.sat_calls, 0u);
}

TEST(Portfolio, OneInductivePropertyConcludesInTheProbe) {
  auto task = designs::make_task("lfsr16");
  auto engine = make_engine(EngineKind::Portfolio, task.ts, {.max_steps = 12});
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.winner, "k-induction");
  EXPECT_EQ(result.depth, 1u);
}

TEST(Portfolio, TokenRingConcludesInPdr) {
  // k-induction alone never closes token_ring (its step case keeps finding
  // unreachable multi-token states), so the PDR stage does.
  auto task = designs::make_task("token_ring");
  auto engine = make_engine(EngineKind::Portfolio, task.ts, {.max_steps = 64});
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.winner, "pdr");
  EXPECT_FALSE(result.invariant.empty());
  EXPECT_FALSE(result.step_cex.has_value());
}

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
        if (single_conclusive.has_value()) {
          EXPECT_EQ(*single_conclusive, r.verdict);
        }
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
  }
}

TEST(Portfolio, DeepCounterexampleComesFromPdr) {
  // The probe looks only at frame 0; the violation at frame 10 is PDR's.
  auto task = counter_task("property bound; a != 4'd10; endproperty");
  EngineOptions options;
  options.max_steps = 16;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());

  EXPECT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_EQ(result.winner, "pdr");
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_EQ(result.cex->system(), &task.ts);
  EXPECT_TRUE(result.cex->is_consistent());
  const NodeRef target = task.target_exprs().front();
  ASSERT_TRUE(result.cex->first_violation(target).has_value());
}

// --- stats conservation ------------------------------------------------------

/// Per-counter check that the portfolio's stats equal `sum`, over
/// EngineStats' one counter list. `seconds` is not on it by design: the
/// portfolio's value is its own wall clock.
testing::AssertionResult stats_equal(const EngineStats& portfolio, const EngineStats& sum) {
  testing::AssertionResult equal = testing::AssertionSuccess();
  EngineStats::for_each_counter(
      [&](const char* name, auto merged, auto summed) {
        if (equal && merged != summed) {
          equal = testing::AssertionFailure() << name << ": the portfolio reports " << merged
                                              << " but its two stages sum to " << summed;
        }
      },
      portfolio, sum);
  return equal;
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

TEST(StatsConservation, PortfolioStatsAreTheSumOfProbeAndPdr) {
  // The schedule is deterministic, so running its two stages by hand on a
  // second copy of the design reproduces every counter: nothing lost,
  // nothing double-counted.
  EngineOptions options;
  options.max_steps = 12;
  auto task = designs::make_task("sequencer");
  const EngineResult result =
      make_engine(EngineKind::Portfolio, task.ts, options)->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.winner, "pdr");

  auto by_hand = designs::make_task("sequencer");
  EngineOptions probe_options = options;
  probe_options.max_steps = 1;
  const EngineResult probe = make_engine(EngineKind::KInduction, by_hand.ts, probe_options)
                                 ->prove_all(by_hand.target_exprs());
  EXPECT_EQ(probe.verdict, Verdict::Unknown);
  const EngineResult pdr =
      make_engine(EngineKind::Pdr, by_hand.ts, options)->prove_all(by_hand.target_exprs());
  EngineStats sum = probe.stats;
  sum += pdr.stats;
  EXPECT_TRUE(stats_equal(result.stats, sum));
  // Both stages did real work, so the sum is not vacuous.
  EXPECT_GT(probe.stats.sat_calls, 0u);
  EXPECT_GT(pdr.stats.conflicts, 0u);
  EXPECT_GT(pdr.stats.retired_gates, 0u);
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

TEST(Portfolio, SeededLemmasReachTheProbe) {
  // sync_counters is not inductive and not clause-compact, so neither stage
  // concludes alone at this bound; with the equality lemma the probe closes
  // at k = 1.
  auto task = designs::make_task("sync_counters");
  sva::PropertyCompiler compiler(task.ts);
  const NodeRef lemma = compiler.compile_expr("count1 == count2");

  EngineOptions options;
  options.max_steps = 6;
  options.lemmas = {lemma};
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.winner, "k-induction");
}

TEST(Portfolio, UnknownRunForwardsTheProbesStepCex) {
  // Neither stage concludes on sync_counters without help, but the probe
  // produces the induction-step artefact; the portfolio must forward it so
  // the GenAI repair loop stays usable behind EngineKind::Portfolio.
  auto task = designs::make_task("sync_counters");
  EngineOptions options;
  options.max_steps = 4;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
  ASSERT_TRUE(result.step_cex.has_value());
  EXPECT_EQ(result.step_cex->size(), 2u);  // the k = 1 step case: frames 0..1
}

TEST(Portfolio, OptionsReachBothStages) {
  // With a zero conflict budget both stages' first solves give up, so
  // hamming74 (which PDR proves at 12 steps) comes back Unknown without a
  // single conflict (the probe alone spends 40 without the budget).
  auto task = designs::make_task("hamming74");
  EngineOptions options;
  options.max_steps = 12;
  options.conflict_budget = 0;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
  EXPECT_EQ(result.stats.conflicts, 0u);
}

// --- satellite regressions ---------------------------------------------------

TEST(Portfolio, ZeroStepBudgetIsUniformlyUnknown) {
  // A zero budget buys no exploration: the portfolio reports Unknown
  // without running either stage.
  auto task = counter_task("property bound; a != 4'd0; endproperty");  // fails at t0
  EngineOptions options;
  options.max_steps = 0;
  auto engine = make_engine(EngineKind::Portfolio, task.ts, options);
  const EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_TRUE(result.winner.empty());
  EXPECT_EQ(result.stats.sat_calls, 0u);
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
  flow::LemmaManager manager(task2, {{.max_k = 8}, flow::ReviewPolicy{}});
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
  // The whole header must be one count: no trailing junk, no sign.
  EXPECT_THROW(flow::parse_lemma_file("# lemmas: 2x\na == b\nc != d\n"), UsageError);
  try {
    flow::parse_lemma_file("# lemmas: -1\na == b\n");
    ADD_FAILURE() << "a negative count header parsed";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("got '-1'"), std::string::npos) << e.what();
  }

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
  EXPECT_EQ(llm.calls(), 0u);  // the portfolio's PDR stage concludes outright
  // PDR's inductive invariant comes back as admitted lemmas — the
  // bidirectional exchange works behind the portfolio façade too.
  EXPECT_FALSE(report.admitted_lemmas.empty());
}

}  // namespace
}  // namespace genfv::flow
