/// End-to-end integration tests: the complete paper pipeline (Listing 1 ->
/// Listing 2 target -> Fig. 2 induction failure -> Fig. 3 CEX -> Listing 3
/// helper -> proof), both flows pinned over the whole zoo with GPT-4o,
/// and the qualitative model ranking from the Results section.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "flow/job.hpp"
#include "genai/simulated_llm.hpp"
#include "mc/kinduction.hpp"
#include "sim/waveform.hpp"
#include "sva/compiler.hpp"

namespace genfv {
namespace {

flow::FlowOptions default_options() {
  flow::FlowOptions options;
  options.engine.max_k = 6;
  return options;
}

TEST(PaperPipeline, Figure3ScenarioEndToEnd) {
  // 1. Listing 1 + Listing 2 elaborate and compile.
  auto task = designs::make_task("sync_counters");
  ASSERT_EQ(task.target_indices.size(), 1u);

  // 2. Plain k-induction fails the step case and yields the Fig. 3 CEX.
  mc::KInductionEngine plain(task.ts, {.max_steps = 4});
  const auto unaided = plain.prove_all(task.target_exprs());
  ASSERT_EQ(unaided.verdict, mc::Verdict::Unknown);
  ASSERT_TRUE(unaided.step_cex.has_value());
  const auto& cex = *unaided.step_cex;
  const ir::NodeRef c1 = task.ts.lookup("count1");
  const ir::NodeRef c2 = task.ts.lookup("count2");
  // Fig. 3's signature: at the failing frame count1 is all-ones while
  // count2 is not (its bit 31 in particular may be 0).
  const std::size_t last = cex.size() - 1;
  EXPECT_EQ(cex.value(c1, last), 0xFFFFFFFFu);
  EXPECT_NE(cex.value(c2, last), 0xFFFFFFFFu);
  // The rendered waveform (the prompt artefact) mentions both counters.
  const std::string wave = sim::render_waveform(
      cex, sim::default_signals(task.ts), {.failure_frame = last});
  EXPECT_NE(wave.find("count1"), std::string::npos);
  EXPECT_NE(wave.find("count2"), std::string::npos);

  // 3. The Fig. 2 repair flow with a GPT-4o-profile model converges, and the
  //    admitted lemma is Listing 3's helper.
  genai::SimulatedLlm llm(genai::profile_by_name("gpt-4o"), 42);
  flow::CexRepairFlow repair(llm, default_options());
  const flow::FlowReport report = repair.run(task);
  EXPECT_TRUE(report.all_targets_proven());
  bool listing3 = false;
  for (const auto& lemma : report.admitted_lemmas) {
    if (lemma.find("count1 == count2") != std::string::npos) listing3 = true;
  }
  EXPECT_TRUE(listing3);
}

/// "<verdict>@<k>" per target, then the round and admitted-lemma counts.
std::string flow_pin(const flow::FlowReport& report) {
  std::string pin;
  for (const auto& t : report.targets) {
    pin += mc::to_string(t.result.verdict) + "@" + std::to_string(t.result.k) + " ";
  }
  return pin + "rounds=" + std::to_string(report.iterations.size()) +
         " lemmas=" + std::to_string(report.admitted_lemmas.size());
}

struct FlowPin {
  const char* design;
  const char* helper;  ///< Fig. 1
  const char* cex;     ///< Fig. 2
};

// Both paper flows on every zoo design with a GPT-4o-profile model: the
// repair flow proves them all, and any drift in how a flow proves its
// targets or books a round shows up here.
//
// secded84's cex row was re-recorded (lemmas 9 -> 7, same verdicts and
// rounds) when inprocessing sessions moved to solve() entry: k-induction's
// few-query solvers stopped running sessions, so the step case returns a
// different counterexample, and the repair prompt built from it draws
// different helpers.
constexpr FlowPin kFlowPins[] = {
    {"sync_counters", "proven@1 rounds=1 lemmas=7", "proven@1 rounds=1 lemmas=7"},
    {"triple_counters", "proven@1 rounds=1 lemmas=10", "proven@1 rounds=1 lemmas=10"},
    {"gray_counter", "proven@1 rounds=1 lemmas=6", "proven@1 rounds=4 lemmas=6"},
    {"updown_pair", "proven@1 rounds=1 lemmas=3", "proven@1 rounds=1 lemmas=3"},
    {"lfsr_pair", "proven@1 rounds=1 lemmas=10", "proven@1 rounds=1 lemmas=10"},
    {"lfsr16", "proven@1 rounds=1 lemmas=0", "proven@1 rounds=0 lemmas=0"},
    {"token_ring", "proven@1 rounds=1 lemmas=8", "proven@1 rounds=1 lemmas=3"},
    {"sequencer", "proven@1 rounds=1 lemmas=9", "proven@1 rounds=1 lemmas=5"},
    {"dual_accumulator", "unknown@6 rounds=1 lemmas=10", "proven@1 rounds=2 lemmas=14"},
    {"fifo_ctrl", "proven@1 rounds=1 lemmas=3", "proven@1 rounds=1 lemmas=2"},
    {"parity_codec", "proven@1 rounds=1 lemmas=1", "proven@1 rounds=1 lemmas=1"},
    {"hamming74", "proven@1 rounds=1 lemmas=10", "proven@1 rounds=2 lemmas=8"},
    {"secded84", "proven@1 proven@1 rounds=1 lemmas=10",
     "proven@1 proven@1 rounds=2 lemmas=7"},
};

TEST(FlowPins, EveryZooDesignKeepsItsHelperAndCexTrajectory) {
  ASSERT_EQ(std::size(kFlowPins), designs::all_designs().size());
  for (const FlowPin& pin : kFlowPins) {
    for (const bool helper : {true, false}) {
      auto task = designs::make_task(pin.design);
      genai::SimulatedLlm llm(genai::profile_by_name("gpt-4o"), 42);
      const flow::FlowReport report =
          helper ? flow::HelperGenFlow(llm, default_options()).run(task)
                 : flow::CexRepairFlow(llm, default_options()).run(task);
      EXPECT_EQ(flow_pin(report), helper ? pin.helper : pin.cex)
          << pin.design << (helper ? " helper" : " cex");
      // Soundness firewall: every admitted lemma carries a Proven outcome.
      EXPECT_EQ(report.admitted_lemmas.size(),
                report.candidates_with(flow::CandidateStatus::Proven))
          << report.to_string();
    }
  }
}

// What `genfv_cli demo <design>` runs with no flags — JobSpec::cli(), the
// Fig. 2 loop at the CLI's bound — pinned per design as the CLI prints it.
constexpr std::pair<const char*, const char*> kCliDefaultPins[] = {
    {"sync_counters", "proven@1 rounds=1 lemmas=7"},
    {"triple_counters", "proven@1 rounds=1 lemmas=10"},
    {"gray_counter", "proven@1 rounds=4 lemmas=6"},
    {"updown_pair", "proven@1 rounds=1 lemmas=3"},
    {"lfsr_pair", "proven@1 rounds=1 lemmas=10"},
    {"lfsr16", "proven@1 rounds=0 lemmas=0"},
    {"token_ring", "proven@1 rounds=1 lemmas=4"},
    {"sequencer", "proven@1 rounds=1 lemmas=5"},
    {"dual_accumulator", "proven@1 rounds=2 lemmas=11"},
    {"fifo_ctrl", "proven@1 rounds=1 lemmas=2"},
    {"parity_codec", "proven@1 rounds=1 lemmas=1"},
    {"hamming74", "proven@1 rounds=2 lemmas=8"},
    {"secded84", "proven@1 proven@1 rounds=1 lemmas=7"},
};

TEST(ShippedDefaults, CliSpecKeepsItsTrajectoryOnEveryZooDesign) {
  ASSERT_EQ(std::size(kCliDefaultPins), designs::all_designs().size());
  for (const auto& [design, pin] : kCliDefaultPins) {
    auto task = designs::make_task(design);
    const flow::FlowReport report = flow::run_flow(flow::JobSpec::cli(), task);
    EXPECT_EQ(flow_pin(report), pin) << design;
    EXPECT_EQ(report.flow, "cex_repair") << design;
  }
}

TEST(HelperGenerationFlow, Figure1FlowProvesCounterFamilies) {
  // The spec+RTL (no CEX) flow suffices for the equality-lemma designs.
  for (const char* name : {"sync_counters", "triple_counters"}) {
    auto task = designs::make_task(name);
    genai::SimulatedLlm llm(genai::profile_by_name("gpt-4-turbo"), 7);
    flow::HelperGenFlow flow(llm, default_options());
    const auto report = flow.run(task);
    EXPECT_TRUE(report.all_targets_proven()) << name << "\n" << report.to_string();
  }
}

TEST(ModelComparison, OpenAiProfilesDominateOnEcc) {
  // Results §V: "quality of generated assertions was much better in the case
  // of LLMs from OpenAI ... compared to Llama or Gemini". On the ECC family
  // the deep xor_linear analysis is required, which the weak profiles lack.
  std::size_t strong_wins = 0;
  std::size_t weak_wins = 0;
  for (const char* design : {"parity_codec", "hamming74", "secded84"}) {
    auto strong_task = designs::make_task(design);
    genai::SimulatedLlm strong(genai::profile_by_name("gpt-4o"), 11);
    flow::CexRepairFlow strong_flow(strong, default_options());
    if (strong_flow.run(strong_task).all_targets_proven()) ++strong_wins;

    auto weak_task = designs::make_task(design);
    genai::SimulatedLlm weak(genai::profile_by_name("llama-3-70b"), 11);
    flow::CexRepairFlow weak_flow(weak, default_options());
    if (weak_flow.run(weak_task).all_targets_proven()) ++weak_wins;
  }
  EXPECT_EQ(strong_wins, 3u);
  EXPECT_EQ(weak_wins, 0u);
}

TEST(Soundness, NoFlowEverAdmitsAFalseLemma) {
  // Run the noisiest profile over the zoo and re-verify every admitted lemma
  // with an independent engine: they must all be genuine invariants.
  for (const auto& info : designs::all_designs()) {
    auto task = designs::make_task(info);
    genai::SimulatedLlm llm(genai::profile_by_name("llama-3-70b"), 1337);
    flow::CexRepairFlow repair(llm, default_options());
    const auto report = repair.run(task);
    for (const auto& lemma_sva : report.admitted_lemmas) {
      sva::PropertyCompiler compiler(task.ts);
      const ir::NodeRef expr = compiler.compile(lemma_sva).expr;
      sim::RandomSimulator simulator(task.ts, 4242);
      EXPECT_FALSE(simulator.falsify(expr, 300, 3).has_value())
          << info.name << ": admitted lemma fails in simulation: " << lemma_sva;
    }
  }
}

}  // namespace
}  // namespace genfv
