#pragma once

/// \file helper_gen_flow.hpp
/// Fig. 1 flow: specification + RTL -> LLM -> helper assertions -> formal
/// proof -> proven helpers become assumptions -> targets proven with them.

#include "flow/lemma_manager.hpp"
#include "genai/llm_client.hpp"
#include "mc/engine.hpp"

namespace genfv::flow {

struct FlowOptions {
  mc::KInductionOptions engine;  ///< per-proof bounds (targets and candidates)
  ReviewPolicy review;
  bool joint_induction = true;
  /// Fig. 2 flow: maximum LLM round trips.
  std::size_t max_iterations = 4;
  /// Include target SVA in the prompt (paper's flows do).
  bool targets_in_prompt = true;
  /// Engine used for the *target* proofs; candidate/lemma proofs stay on
  /// k-induction. The repair loop needs a step CEX to prompt with — when a
  /// step-CEX-less engine (BMC, PDR) stalls on Unknown, the flow harvests
  /// one from a k-induction run under the same lemmas. When PDR proves a
  /// target, its inductive-frame clauses are admitted back as lemmas.
  mc::EngineKind target_engine = mc::EngineKind::KInduction;
  /// Live lemma exchange between portfolio members (only meaningful when
  /// `target_engine` is Portfolio); mirrors EngineOptions::exchange.
  bool exchange = true;
  /// Seed PDR frames with the LemmaManager's *unproven* candidates (the
  /// helpers that failed their k-induction proof) as may clauses; mirrors
  /// EngineOptions::pdr_seed_candidates. A hallucinated candidate costs SAT
  /// work, never soundness — see docs/lemmas.md.
  bool pdr_seed_candidates = false;

  // --- ignored; kept only for perfbench/ ------------------------------------
  // No flow reads these; the frozen perfbench/ benchmark still sets them.
  std::size_t pdr_workers = 1;
  bool pdr_ternary = false;
  std::size_t pdr_candidate_strikes = 2;
};

/// The options of a target proof, built in one place for every flow:
/// `options.engine` first, then the admitted lemmas of `lemmas` as
/// assumptions, the portfolio exchange switch and — with
/// pdr_seed_candidates — the manager's unproven candidates as PDR may
/// clauses. Flows hand the result to `mc::make_engine(options.target_engine,
/// ...)`.
mc::EngineOptions target_engine_options(const FlowOptions& options,
                                        const LemmaManager& lemmas);

class HelperGenFlow {
 public:
  HelperGenFlow(genai::LlmClient& llm, FlowOptions options = {});

  /// Run the one-shot Fig. 1 pipeline on `task`.
  FlowReport run(VerificationTask& task);

 private:
  genai::LlmClient& llm_;
  FlowOptions options_;
};

}  // namespace genfv::flow
