#pragma once

/// \file lemma_manager.hpp
/// Candidate-to-lemma lifecycle shared by both flows: parse -> compile ->
/// dedupe -> simulation screen -> k-induction proof -> admit. Proven helpers
/// become assumptions for subsequent proofs ("once proven, these assertions
/// would be used as assumptions", paper §III). A joint (mutual-induction)
/// pass rescues candidate sets that are only inductive together with each
/// other or with the targets.

#include <vector>

#include "flow/report.hpp"
#include "flow/review_policy.hpp"
#include "flow/session.hpp"
#include "mc/engine.hpp"

namespace genfv::flow {

struct LemmaManagerOptions {
  mc::KInductionOptions engine;  ///< bounds for candidate/lemma proofs
  ReviewPolicy review;
};

/// Not thread-safe. Holds a reference to `task` (which must outlive the
/// manager) and mutates it: compiling candidates may add `$past` auxiliary
/// state to `task.ts`. All admitted lemma expressions live in `task.ts`'s
/// NodeManager.
///
/// Soundness invariant: `lemma_exprs()` only ever contains expressions that
/// were (a) proven by k-induction inside `process` — alone or in the joint
/// pass — or (b) handed to `admit_proven` by a caller holding a proof. The
/// lemma-file path (`flow/lemma_io.hpp`) deliberately re-enters through
/// `process`, never `admit_proven`, so file contents are re-proven.
class LemmaManager {
 public:
  LemmaManager(VerificationTask& task, LemmaManagerOptions options);

  /// Run every candidate text through the gate: parse -> compile -> dedupe
  /// -> simulation screen -> k-induction proof -> admit. Admitted lemmas
  /// accumulate across calls and are assumed in later candidates' proofs.
  /// `targets` participate in the joint-induction rescue pass (and are
  /// treated as known facts for dedupe purposes). Returns one outcome per
  /// input text, in order.
  std::vector<CandidateOutcome> process(const std::vector<std::string>& candidate_texts);

  /// Admit an invariant proven outside the candidate pipeline — e.g. a
  /// clause of PDR's final inductive frame (alone or in the portfolio).
  /// `expr` must already live in `task.ts`'s NodeManager and the caller
  /// vouches for its proof. Deduplicates against known facts; returns true
  /// when the lemma was actually added.
  bool admit_proven(ir::NodeRef expr, std::string sva);

  const std::vector<ir::NodeRef>& lemma_exprs() const noexcept { return lemma_exprs_; }
  const std::vector<std::string>& lemma_svas() const noexcept { return lemma_svas_; }

  /// Cumulative prover time spent on candidates.
  double prove_seconds() const noexcept { return prove_seconds_; }

  /// The manager's proof bounds with every admitted lemma assumed.
  mc::EngineOptions engine_with_lemmas() const;

 private:
  bool known_fact(ir::NodeRef expr) const;

  VerificationTask& task_;
  LemmaManagerOptions options_;
  ReviewGate gate_;
  std::vector<ir::NodeRef> lemma_exprs_;
  std::vector<std::string> lemma_svas_;
  double prove_seconds_ = 0.0;
};

}  // namespace genfv::flow
