/// End-to-end integration tests: the complete paper pipeline (Listing 1 ->
/// Listing 2 target -> Fig. 2 induction failure -> Fig. 3 CEX -> Listing 3
/// helper -> proof), full-zoo convergence with the strong model profiles,
/// and the qualitative model ranking from the Results section.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
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

class ZooConvergence : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooConvergence, CexRepairFlowProvesEveryDesignWithGpt4o) {
  auto task = designs::make_task(GetParam());
  genai::SimulatedLlm llm(genai::profile_by_name("gpt-4o"), 42);
  flow::CexRepairFlow repair(llm, default_options());
  const flow::FlowReport report = repair.run(task);
  EXPECT_TRUE(report.all_targets_proven()) << report.to_string();
  // Soundness firewall: every admitted lemma carries a Proven outcome.
  EXPECT_EQ(report.admitted_lemmas.size(),
            report.candidates_with(flow::CandidateStatus::Proven));
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const auto& d : designs::all_designs()) names.push_back(d.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ZooConvergence, ::testing::ValuesIn(zoo_names()),
                         [](const auto& info) { return info.param; });

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
