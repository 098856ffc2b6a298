/// Flow-layer tests: the review gate, the candidate lifecycle through
/// LemmaManager (every status), joint-induction rescue, and both paper flows
/// driven by a *scripted* LLM — so flow behaviour is pinned independently of
/// the simulated model.

#include <gtest/gtest.h>

#include <fstream>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "flow/job.hpp"
#include "genai/prompt.hpp"
#include "genai/simulated_llm.hpp"
#include "sim/interpreter.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {
namespace {

/// Plays back canned completions; records prompts for assertions.
class ScriptedLlm : public genai::LlmClient {
 public:
  explicit ScriptedLlm(std::vector<std::string> completions)
      : completions_(std::move(completions)) {}

  genai::Completion complete(const genai::Prompt& prompt) override {
    prompts_.push_back(prompt);
    genai::Completion c;
    c.model = model_name();
    c.text = next_ < completions_.size() ? completions_[next_++] : "";
    c.prompt_tokens = genai::estimate_tokens(prompt.user);
    c.completion_tokens = genai::estimate_tokens(c.text);
    c.latency_seconds = 0.01;
    return c;
  }

  std::string model_name() const override { return "scripted"; }

  const std::vector<genai::Prompt>& prompts() const { return prompts_; }

 private:
  std::vector<std::string> completions_;
  std::size_t next_ = 0;
  std::vector<genai::Prompt> prompts_;
};

VerificationTask counters_task() { return designs::make_task("sync_counters"); }

/// counter_wrap.btor2 (count wraps at 5, so `count_hits_seven` holds) plus a
/// second target that fails: count reaches 3 after three steps.
VerificationTask two_target_task() {
  const std::string path = ::testing::TempDir() + "two_targets.btor2";
  std::ifstream base(std::string(GENFV_TEST_CORPUS_DIR) + "/counter_wrap.btor2");
  std::ofstream(path) << base.rdbuf() << "15 constd 1 3\n16 eq 2 4 15\n17 bad 16 hits_three\n";
  return VerificationTask::from_file(path);
}

TEST(ReviewGate, ScreensOutNonInvariants) {
  auto task = counters_task();
  auto& nm = task.ts.nm();
  ReviewGate gate(task.ts, ReviewPolicy{});
  // count1 == 5 is violated quickly in any run.
  const auto witness =
      gate.screen(nm.mk_eq(task.ts.lookup("count1"), nm.mk_const(5, 32)));
  ASSERT_TRUE(witness.has_value());
  // The true helper survives screening.
  EXPECT_FALSE(
      gate.screen(nm.mk_eq(task.ts.lookup("count1"), task.ts.lookup("count2")))
          .has_value());
}

TEST(ReviewGate, DisabledScreenPassesEverything) {
  auto task = counters_task();
  auto& nm = task.ts.nm();
  ReviewPolicy policy;
  policy.sim_screen = false;
  ReviewGate gate(task.ts, policy);
  EXPECT_FALSE(gate.screen(nm.mk_eq(task.ts.lookup("count1"), nm.mk_const(5, 32)))
                   .has_value());
}

TEST(LemmaManager, EveryCandidateStatusIsReachable) {
  auto task = counters_task();
  LemmaManager manager(task, {{.max_steps = 4}, ReviewPolicy{}});
  const auto outcomes = manager.process({
      "property good; count1 == count2; endproperty",       // Proven
      "property syn; count1 == ; endproperty",              // SyntaxRejected
      "property unk; ghost_reg == 1'b0; endproperty",       // CompileRejected
      "property dup; count1 == count2; endproperty",        // Duplicate (of lemma)
      "property halluc; count1 <= 32'h7fffffff; endproperty",  // SimFalsified (eventually >2^31; screen may miss) or ProofFailed
      "property trivial; 1'b1; endproperty",                // Duplicate (trivially true)
  });
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(outcomes[0].status, CandidateStatus::Proven);
  EXPECT_EQ(outcomes[1].status, CandidateStatus::SyntaxRejected);
  EXPECT_EQ(outcomes[2].status, CandidateStatus::CompileRejected);
  EXPECT_EQ(outcomes[3].status, CandidateStatus::Duplicate);
  EXPECT_TRUE(outcomes[4].status == CandidateStatus::SimFalsified ||
              outcomes[4].status == CandidateStatus::ProofFailed)
      << to_string(outcomes[4].status);
  EXPECT_EQ(outcomes[5].status, CandidateStatus::Duplicate);
  ASSERT_EQ(manager.lemma_exprs().size(), 1u);
  EXPECT_GT(manager.prove_seconds(), 0.0);
}

TEST(LemmaManager, TargetDuplicateIsDetected) {
  auto task = counters_task();
  LemmaManager manager(task, {{.max_steps = 4}, ReviewPolicy{}});
  const auto outcomes =
      manager.process({"property t; &count1 |-> &count2; endproperty"});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, CandidateStatus::Duplicate);
}

TEST(LemmaManager, JointInductionRescuesMutuallyDependentCandidates) {
  auto task = designs::make_task("dual_accumulator");
  // max_k = 1: sum equality is 2-inductive on its own, so keep k below that
  // to force the rescue path.
  LemmaManager manager(task, {{.max_steps = 1}, ReviewPolicy{}});
  // sum equality alone is not inductive; acc equality alone is. Presented in
  // the "wrong" order (sum first), the solo pass fails sum equality, and the
  // joint pass must rescue it together with the target.
  const auto outcomes = manager.process({
      "property sums; sum_a == sum_b; endproperty",
      "property accs; acc_a == acc_b; endproperty",
  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, CandidateStatus::Proven);
  EXPECT_EQ(outcomes[1].status, CandidateStatus::Proven);
  EXPECT_NE(outcomes[0].detail.find("joint"), std::string::npos);
}

TEST(HelperGenFlow, ProvesPaperExampleWithScriptedHelper) {
  auto task = counters_task();
  ScriptedLlm llm({R"(The counters are always equal:
```sva
property helper; count1 == count2; endproperty
```
)"});
  FlowOptions options;
  options.engine.max_k = 4;
  HelperGenFlow flow(llm, options);
  const FlowReport report = flow.run(task);

  EXPECT_EQ(report.flow, "helper_generation");
  EXPECT_TRUE(report.all_targets_proven());
  ASSERT_EQ(report.targets.size(), 1u);
  EXPECT_EQ(report.targets[0].result.k, 1u);
  ASSERT_EQ(report.admitted_lemmas.size(), 1u);
  // The Fig. 1 prompt carried spec + RTL but no waveform.
  ASSERT_EQ(llm.prompts().size(), 1u);
  EXPECT_NE(llm.prompts()[0].user.find("## Specification"), std::string::npos);
  EXPECT_EQ(llm.prompts()[0].user.find(genai::marker::kWaveFenceOpen), std::string::npos);
  const std::string rendered = report.to_string();
  EXPECT_NE(rendered.find("proven"), std::string::npos);
}

TEST(HelperGenFlow, UselessCompletionLeavesTargetUnproven) {
  auto task = counters_task();
  ScriptedLlm llm({"I could not find any invariants."});
  FlowOptions options;
  options.engine.max_k = 4;
  HelperGenFlow flow(llm, options);
  const FlowReport report = flow.run(task);
  EXPECT_FALSE(report.all_targets_proven());
  EXPECT_TRUE(report.admitted_lemmas.empty());
  EXPECT_EQ(report.targets[0].result.verdict, mc::Verdict::Unknown);
}

TEST(CexRepairFlow, IteratesUntilProofAndSendsWaveform) {
  auto task = counters_task();
  // First round: a hallucination that the gate rejects. Second round: the
  // real helper. The flow must converge in two repair iterations.
  ScriptedLlm llm({
      R"(```sva
property wrong; count1 <= 32'h000000ff; endproperty
```)",
      R"(```sva
property helper; count1 == count2; endproperty
```)",
  });
  FlowOptions options;
  options.engine.max_k = 4;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);

  EXPECT_TRUE(report.all_targets_proven());
  EXPECT_EQ(report.iterations.size(), 2u);
  EXPECT_EQ(report.iterations[0].lemmas_admitted, 0u);
  EXPECT_EQ(report.iterations[1].lemmas_admitted, 1u);
  // Fig. 2 prompts must carry the failing property and the CEX waveform.
  ASSERT_EQ(llm.prompts().size(), 2u);
  for (const auto& prompt : llm.prompts()) {
    EXPECT_NE(prompt.user.find(genai::marker::kWaveFenceOpen), std::string::npos);
    EXPECT_NE(prompt.user.find(genai::marker::kFailedProperty), std::string::npos);
  }
}

TEST(CexRepairFlow, StopsWhenModelMakesNoProgress) {
  auto task = counters_task();
  ScriptedLlm llm({"no ideas", "still nothing", "sorry"});
  FlowOptions options;
  options.engine.max_k = 4;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);
  EXPECT_FALSE(report.all_targets_proven());
  EXPECT_EQ(report.iterations.size(), 1u);  // gave up after one empty round
}

TEST(CexRepairFlow, AlreadyProvableNeedsZeroIterations) {
  auto task = designs::make_task("lfsr16");
  ScriptedLlm llm({});
  FlowOptions options;
  options.engine.max_k = 4;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);
  EXPECT_TRUE(report.all_targets_proven());
  EXPECT_TRUE(report.iterations.empty());
  EXPECT_TRUE(llm.prompts().empty());  // the model was never consulted
}

TEST(CexRepairFlow, GateAblationStillSound) {
  // With the simulation screen off, hallucinations reach the prover and are
  // rejected there — more effort, same verdicts (soundness firewall).
  auto task = counters_task();
  ScriptedLlm llm({
      R"(```sva
property wrong; count1 <= 32'h000000ff; endproperty
```)",
      R"(```sva
property helper; count1 == count2; endproperty
```)",
  });
  FlowOptions options;
  options.engine.max_k = 4;
  options.review.sim_screen = false;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);
  EXPECT_TRUE(report.all_targets_proven());
  // The wrong candidate must show up as ProofFailed, never as a lemma.
  EXPECT_EQ(report.candidates_with(CandidateStatus::ProofFailed), 1u);
  EXPECT_EQ(report.admitted_lemmas.size(), 1u);
}

TEST(CexRepairFlow, PdrEngineProvesWithoutLlmHelpAndExportsLemmas) {
  // Engine selection end to end: with PDR as the target engine, token_ring
  // closes with zero LLM round trips, and the inductive frame's clauses
  // come back as admitted lemmas the helper flow can reuse.
  auto task = designs::make_task("token_ring");
  ScriptedLlm llm({});
  FlowOptions options;
  options.engine.max_k = 8;
  options.target_engine = mc::EngineKind::Pdr;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);

  EXPECT_EQ(report.engine, "pdr");
  EXPECT_TRUE(report.all_targets_proven());
  EXPECT_TRUE(llm.prompts().empty());
  EXPECT_FALSE(report.admitted_lemmas.empty());
  // Exported lemmas are well-formed SVA: they feed back into a second flow
  // run as provable candidates (the bidirectional exchange).
  auto task2 = designs::make_task("token_ring");
  LemmaManager manager(task2, {{.max_steps = 8}, ReviewPolicy{}});
  const auto outcomes = manager.process(report.admitted_lemmas);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status == CandidateStatus::Proven ||
                outcome.status == CandidateStatus::Duplicate)
        << outcome.sva << " -> " << to_string(outcome.status);
  }
}

TEST(CexRepairFlow, TargetProofPublishesEngineCounters) {
  // With telemetry on, the lemma loop's target proof adds its EngineStats to
  // the registry under `engine.` once, as --flow plain does. token_ring
  // closes on its one joint PDR proof, so the published counters equal a
  // standalone PDR run under the same options.
  auto task = designs::make_task("token_ring");
  ScriptedLlm llm({});
  FlowOptions options;
  options.engine.max_k = 8;
  options.target_engine = mc::EngineKind::Pdr;
  util::metrics().reset();
  util::set_telemetry_level(util::TelemetryLevel::Metrics);
  const FlowReport report = CexRepairFlow(llm, options).run(task);
  util::set_telemetry_level(util::TelemetryLevel::Off);
  const auto values = util::metrics().snapshot_values();
  util::metrics().reset();
  ASSERT_TRUE(report.all_targets_proven());

  auto fresh = designs::make_task("token_ring");
  auto pdr = mc::make_engine(mc::EngineKind::Pdr, fresh.ts,
                             mc::to_engine_options(options.engine));
  const mc::EngineStats alone = pdr->prove_all(fresh.target_exprs()).stats;
  ASSERT_GT(alone.sat_calls, 0u);
  ASSERT_TRUE(values.count("engine.sat_calls"));
  EXPECT_EQ(values.at("engine.sat_calls"), static_cast<std::int64_t>(alone.sat_calls));
  ASSERT_TRUE(values.count("engine.conflicts"));
  EXPECT_EQ(values.at("engine.conflicts"), static_cast<std::int64_t>(alone.conflicts));
  EXPECT_TRUE(values.count("engine.candidates_seeded"));
}

TEST(CexRepairFlow, PdrUnknownFallsBackToStepCexAndRepairs) {
  // PDR alone is stuck on sync_counters (the equality invariant is not
  // clause-compact), so the flow must harvest a k-induction step CEX to
  // prompt with; the admitted helper then seeds PDR's frames and the proof
  // closes — the full bidirectional loop in one run.
  auto task = counters_task();
  ScriptedLlm llm({R"(```sva
property helper; count1 == count2; endproperty
```
)"});
  FlowOptions options;
  options.engine.max_k = 4;
  options.target_engine = mc::EngineKind::Pdr;
  CexRepairFlow flow(llm, options);
  const FlowReport report = flow.run(task);

  EXPECT_EQ(report.engine, "pdr");
  ASSERT_EQ(llm.prompts().size(), 1u);  // one repair round trip happened
  EXPECT_TRUE(report.all_targets_proven());
  EXPECT_FALSE(report.admitted_lemmas.empty());
}

TEST(CexRepairFlow, JointFalsifiedSettlesEachTargetAlone) {
  // The joint proof fails on hits_three alone; reporting that verdict for
  // both targets would call count_hits_seven falsified.
  auto task = two_target_task();
  ASSERT_EQ(task.target_indices.size(), 2u);
  ScriptedLlm llm({});
  FlowOptions options;
  options.engine.max_k = 8;
  const FlowReport report = CexRepairFlow(llm, options).run(task);

  ASSERT_EQ(report.targets.size(), 2u);
  EXPECT_EQ(report.targets[0].name, "count_hits_seven");
  EXPECT_EQ(report.targets[0].result.verdict, mc::Verdict::Proven);
  EXPECT_EQ(report.targets[1].name, "hits_three");
  EXPECT_EQ(report.targets[1].result.verdict, mc::Verdict::Falsified);
  EXPECT_TRUE(llm.prompts().empty());

  // hits_three's own counterexample replays on the reference simulator:
  // frame 0 is the init state, every frame steps to the next, and the last
  // frame violates the target.
  ASSERT_TRUE(report.targets[1].result.base_cex.has_value());
  const sim::Trace& cex = *report.targets[1].result.base_cex;
  const ir::NodeRef count = task.ts.lookup("count");
  ASSERT_GE(cex.size(), 2u);
  EXPECT_EQ(cex.value(count, 0), 0u);
  for (std::size_t i = 1; i < cex.size(); ++i) {
    EXPECT_EQ(sim::step(task.ts, cex.frame(i - 1)).at(count), cex.value(count, i));
  }
  const ir::NodeRef hits_three = task.ts.property(task.target_indices[1]).expr;
  EXPECT_EQ(sim::evaluate(hits_three, cex.frame(cex.size() - 1)), 0u);
}

TEST(DirectMinerFlow, TargetEngineProvesTheTargets) {
  // The direct flow reads the same FlowOptions as the LLM flows, so the
  // selected target engine — not a hard-coded k-induction — proves the
  // targets, and the report header names it.
  auto task = designs::make_task("token_ring");
  JobSpec spec = JobSpec::cli();
  spec.flow = FlowKind::Direct;
  spec.engine = mc::EngineKind::Pdr;
  const FlowReport report = run_flow(spec, task);

  EXPECT_EQ(report.engine, "pdr");
  EXPECT_NE(report.to_string().find("engine=pdr"), std::string::npos);
  EXPECT_TRUE(report.all_targets_proven());
}

TEST(FlowReport, CountsByStatus) {
  FlowReport report;
  IterationReport it;
  it.candidates.push_back({.sva = "a", .status = CandidateStatus::Proven, .detail = ""});
  it.candidates.push_back(
      {.sva = "b", .status = CandidateStatus::SimFalsified, .detail = ""});
  it.candidates.push_back({.sva = "c", .status = CandidateStatus::Proven, .detail = ""});
  report.iterations.push_back(it);
  EXPECT_EQ(report.candidates_total(), 3u);
  EXPECT_EQ(report.candidates_with(CandidateStatus::Proven), 2u);
  EXPECT_EQ(report.candidates_with(CandidateStatus::SyntaxRejected), 0u);
  EXPECT_FALSE(report.all_targets_proven());  // no targets recorded
}

}  // namespace
}  // namespace genfv::flow
