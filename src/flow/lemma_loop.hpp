#pragma once

/// \file lemma_loop.hpp
/// The one lemma loop behind every flow: candidates -> LemmaManager (review
/// gate, k-induction proof, admit) -> target proofs with the admitted lemmas
/// assumed -> PDR invariants admitted back. Fig. 1, Fig. 2 and the direct
/// miner differ only in where their candidates come from, so the candidate
/// source is the loop's parameter.

#include <functional>
#include <optional>

#include "flow/lemma_manager.hpp"
#include "genai/llm_client.hpp"
#include "mc/engine.hpp"

namespace genfv::flow {

struct FlowOptions {
  mc::KInductionOptions engine;  ///< per-proof bounds (targets and candidates)
  ReviewPolicy review;
  /// Engine used for the *target* proofs; candidate/lemma proofs stay on
  /// k-induction. The repair loop needs a step CEX to prompt with — when a
  /// step-CEX-less engine (BMC, PDR) stalls on Unknown, the loop harvests
  /// one from a k-induction run under the same lemmas. When PDR proves a
  /// target, its inductive-frame clauses are admitted back as lemmas.
  mc::EngineKind target_engine = mc::EngineKind::KInduction;

  // --- ignored; kept only for perfbench/ ------------------------------------
  // No flow reads these; the frozen perfbench/ benchmark still sets them.
  std::size_t pdr_workers = 1;
  bool pdr_ternary = false;
  bool pdr_seed_candidates = false;
  std::size_t pdr_candidate_strikes = 2;
  bool exchange = true;
};

/// Model round trips the Fig. 2 repair source gets before the loop settles
/// on its last proof.
inline constexpr std::size_t kMaxRepairRounds = 4;

/// One round's candidate texts and the model round trip that produced them
/// (a default completion when no model was asked).
struct Proposal {
  std::vector<std::string> texts;
  genai::Completion completion;
};

/// Send `prompt` to `llm` and extract the assertions of its answer.
Proposal ask_model(genai::LlmClient& llm, const genai::Prompt& prompt);

/// Fig. 2's candidate source: called with the joint proof that stalled on a
/// step CEX and the lemmas admitted so far.
using RepairSource =
    std::function<Proposal(const mc::EngineResult& failed, const LemmaManager& lemmas)>;

/// Run the loop on `task` and report it under the names `flow` and `model`.
///
/// `first` goes through the LemmaManager before any target proof. With
/// `repair`, the targets are then proven jointly; while that proof is
/// Unknown with a step CEX, `repair` proposes the next round, up to
/// kMaxRepairRounds (an empty proposal ends the loop). A joint verdict
/// settles every target, except Falsified over two or more targets: it
/// names no culprit, so each target is then proven alone — as every target
/// is without `repair`, with options rebuilt after each proof so a PDR
/// invariant admitted on one target is assumed for the next.
FlowReport run_lemma_loop(VerificationTask& task, const FlowOptions& options,
                          std::string flow, std::string model,
                          std::optional<Proposal> first, const RepairSource& repair = {});

}  // namespace genfv::flow
