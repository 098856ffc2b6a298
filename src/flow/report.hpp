#pragma once

/// \file report.hpp
/// Structured reporting for flow runs: every candidate's fate through the
/// review gate, per-iteration LLM bookkeeping, and the final proof results.
/// Benches E2-E5/E7 aggregate these.

#include <string>
#include <vector>

#include "mc/engine.hpp"

namespace genfv::flow {

/// What happened to one generated assertion.
enum class CandidateStatus {
  SyntaxRejected,   ///< did not parse as SVA
  CompileRejected,  ///< parsed, but referenced unknown signals / bad widths
  Duplicate,        ///< structurally identical to a known lemma/target/constant
  SimFalsified,     ///< random simulation found a violating run (hallucination)
  ProofFailed,      ///< prover could not establish it (within bounds)
  Proven,           ///< k-induction proof succeeded -> admitted as lemma
};

std::string to_string(CandidateStatus status);

struct CandidateOutcome {
  std::string sva;
  CandidateStatus status = CandidateStatus::SyntaxRejected;
  std::string detail;       ///< error text / falsifying frame / proof k
  double prove_seconds = 0.0;
  std::size_t proof_k = 0;
};

/// One LLM round trip and its consequences.
struct IterationReport {
  std::size_t index = 0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t completion_tokens = 0;
  double llm_latency_seconds = 0.0;
  std::vector<CandidateOutcome> candidates;
  std::size_t lemmas_admitted = 0;
};

/// Per-target final verdict.
struct TargetReport {
  std::string name;
  mc::InductionResult result;
};

struct FlowReport {
  std::string flow;    ///< "helper_generation" (Fig. 1) / "cex_repair" (Fig. 2)
  std::string design;
  std::string model;
  std::string engine;  ///< target-proof engine ("k-induction", "pdr", ...)
  std::uint64_t seed = 0;

  std::vector<IterationReport> iterations;
  std::vector<std::string> admitted_lemmas;  ///< SVA of proven helpers
  std::vector<TargetReport> targets;

  double total_seconds = 0.0;
  double llm_seconds = 0.0;    ///< simulated model latency
  double prove_seconds = 0.0;  ///< engine time (lemmas + targets)

  bool all_targets_proven() const;
  std::size_t targets_proven() const;
  std::size_t candidates_total() const;
  std::size_t candidates_with(CandidateStatus status) const;

  /// Human-readable multi-line report.
  std::string to_string() const;
};

}  // namespace genfv::flow
