/// induction_debug — the paper's Fig. 2 / Fig. 3 walkthrough, step by step,
/// using the engine-level API directly (no flow orchestration).
///
/// Shows exactly what a verification engineer sees: the induction-step
/// failure, the spurious counterexample waveform starting from an
/// unreachable state, the prompt that goes to the model, the helper it
/// proposes, and the closed proof.
///
/// Build & run:  ./build/examples/induction_debug

#include <cstdio>

#include "designs/design.hpp"
#include "genai/prompt.hpp"
#include "genai/response_parser.hpp"
#include "genai/simulated_llm.hpp"
#include "mc/kinduction.hpp"
#include "sim/waveform.hpp"
#include "sva/compiler.hpp"

int main() {
  using namespace genfv;

  auto task = designs::make_task("sync_counters");
  const ir::NodeRef target = task.target_exprs()[0];

  std::printf("=== Step 1: attempt the proof by k-induction ===\n");
  mc::KInductionEngine engine(task.ts, {.max_steps = 6});
  const mc::EngineResult attempt = engine.prove(target);
  std::printf("verdict: %s\n\n", attempt.summary().c_str());

  if (!attempt.step_cex.has_value()) {
    std::printf("unexpected: no induction-step counterexample\n");
    return 1;
  }

  std::printf("=== Step 2: inspect the induction-step counterexample (Fig. 3) ===\n");
  const sim::Trace& cex = *attempt.step_cex;
  const std::size_t failing_frame = cex.size() - 1;
  sim::WaveformOptions wave_options;
  wave_options.failure_frame = failing_frame;
  const std::string waveform =
      sim::render_waveform(cex, sim::default_signals(task.ts), wave_options);
  std::printf("%s\n", waveform.c_str());
  std::printf("%s\n\n",
              sim::render_bit_diff(cex, failing_frame, "count1",
                                   task.ts.lookup("count1"), "count2",
                                   task.ts.lookup("count2"))
                  .c_str());
  std::printf("The start state at t0 is unreachable (the counters differ), but the\n"
              "inductive step cannot know that without a stronger invariant.\n\n");

  std::printf("=== Step 3: ask the model for a helper assertion (Fig. 2) ===\n");
  genai::PromptInputs inputs;
  inputs.design_name = task.name;
  inputs.spec = task.spec;
  inputs.rtl = task.rtl;
  inputs.target_properties = task.target_svas();
  inputs.failed_property = task.target_svas()[0];
  inputs.cex_waveform = waveform;
  inputs.induction_depth = attempt.depth;
  const genai::Prompt prompt = genai::render_cex_repair_prompt(inputs);

  genai::SimulatedLlm llm(genai::profile_by_name("gpt-4-turbo"), 2024);
  const genai::Completion completion = llm.complete(prompt);
  std::printf("--- model answer (%s, %llu completion tokens) ---\n%s\n",
              completion.model.c_str(),
              static_cast<unsigned long long>(completion.completion_tokens),
              completion.text.c_str());

  std::printf("=== Step 4: prove the helper, then the target ===\n");
  std::vector<ir::NodeRef> lemmas;
  sva::PropertyCompiler compiler(task.ts);
  for (const std::string& text : genai::extract_assertions(completion.text)) {
    try {
      const auto compiled = compiler.compile(text);
      mc::KInductionEngine helper_engine(task.ts, {.max_steps = 6, .lemmas = lemmas});
      const auto proof = helper_engine.prove(compiled.expr);
      std::printf("  %-50s -> %s\n", compiled.source.substr(0, 50).c_str(),
                  proof.summary().c_str());
      if (proof.verdict == mc::Verdict::Proven) lemmas.push_back(compiled.expr);
    } catch (const Error& e) {
      std::printf("  rejected (parse/compile): %s\n", e.what());
    }
  }

  mc::KInductionEngine final_engine(task.ts, {.max_steps = 6, .lemmas = lemmas});
  const auto final_result = final_engine.prove(target);
  std::printf("\nfinal verdict with %zu lemma(s): %s\n", lemmas.size(),
              final_result.summary().c_str());
  return final_result.verdict == mc::Verdict::Proven ? 0 : 1;
}
