#include "flow/lemma_manager.hpp"

#include "mc/kinduction.hpp"
#include "sva/compiler.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace genfv::flow {

LemmaManager::LemmaManager(VerificationTask& task, LemmaManagerOptions options)
    : task_(task), options_(std::move(options)), gate_(task_.ts, options_.review) {}

bool LemmaManager::known_fact(ir::NodeRef expr) const {
  // Hash-consing makes structural equality pointer equality.
  for (const ir::NodeRef lemma : lemma_exprs_) {
    if (lemma == expr) return true;
  }
  for (const std::size_t i : task_.target_indices) {
    if (task_.ts.property(i).expr == expr) return true;
  }
  return false;
}

mc::EngineOptions LemmaManager::engine_with_lemmas() const {
  mc::EngineOptions opts = options_.engine;
  opts.lemmas.insert(opts.lemmas.end(), lemma_exprs_.begin(), lemma_exprs_.end());
  return opts;
}

bool LemmaManager::admit_proven(ir::NodeRef expr, std::string sva) {
  if (expr == nullptr || expr->is_const() || known_fact(expr)) return false;
  lemma_exprs_.push_back(expr);
  lemma_svas_.push_back(std::move(sva));
  return true;
}

std::vector<CandidateOutcome> LemmaManager::process(
    const std::vector<std::string>& candidate_texts) {
  std::vector<CandidateOutcome> outcomes;
  struct Pending {
    std::size_t outcome_index;
    ir::NodeRef expr;
  };
  std::vector<Pending> proof_failed;

  for (const std::string& text : candidate_texts) {
    CandidateOutcome outcome;
    outcome.sva = text;

    // Parse + compile (may add $past auxiliary state to the task's system).
    ir::NodeRef expr = nullptr;
    std::string prop_source;
    try {
      const auto parsed = sva::parse_property(text);
      prop_source = parsed.source;
      try {
        sva::PropertyCompiler compiler(task_.ts);
        expr = compiler.compile(parsed).expr;
      } catch (const Error& e) {
        outcome.status = CandidateStatus::CompileRejected;
        outcome.detail = e.what();
        outcomes.push_back(std::move(outcome));
        continue;
      }
    } catch (const Error& e) {
      outcome.status = CandidateStatus::SyntaxRejected;
      outcome.detail = e.what();
      outcomes.push_back(std::move(outcome));
      continue;
    }

    // Trivial / duplicate checks (constant folding already ran).
    if (expr->is_const()) {
      if (expr->value() != 0) {
        outcome.status = CandidateStatus::Duplicate;
        outcome.detail = "trivially true";
      } else {
        outcome.status = CandidateStatus::SimFalsified;
        outcome.detail = "trivially false";
      }
      outcomes.push_back(std::move(outcome));
      continue;
    }
    if (known_fact(expr)) {
      outcome.status = CandidateStatus::Duplicate;
      outcome.detail = "already known";
      outcomes.push_back(std::move(outcome));
      continue;
    }

    // Stage 1: simulation screen (cheap hallucination filter).
    if (util::telemetry_on()) {
      static util::Counter& screened = util::metrics().counter("flow.candidates_screened");
      screened.increment();
    }
    const auto witness = [&] {
      GENFV_TRACE_SPAN("flow", "screen_candidate");
      static util::Counter& screen_ns = util::metrics().counter("flow.screen_ns");
      util::ScopedTimerNs timer(screen_ns);
      return gate_.screen(expr);
    }();
    if (witness) {
      outcome.status = CandidateStatus::SimFalsified;
      outcome.detail = "violated at frame " + std::to_string(witness->size() - 1) +
                       " of a random run";
      outcomes.push_back(std::move(outcome));
      continue;
    }

    // Stage 2: the proof gate.
    mc::KInductionEngine engine(task_.ts, engine_with_lemmas());
    const mc::EngineResult result = [&] {
      GENFV_TRACE_SPAN("flow", "prove_candidate");
      static util::Counter& prove_ns = util::metrics().counter("flow.prove_ns");
      util::ScopedTimerNs timer(prove_ns);
      return engine.prove(expr);
    }();
    prove_seconds_ += result.stats.seconds;
    outcome.prove_seconds = result.stats.seconds;
    outcome.proof_k = result.depth;
    if (result.verdict == mc::Verdict::Proven) {
      outcome.status = CandidateStatus::Proven;
      outcome.detail = "k=" + std::to_string(result.depth);
      lemma_exprs_.push_back(expr);
      lemma_svas_.push_back(prop_source);
    } else {
      outcome.status = CandidateStatus::ProofFailed;
      outcome.detail = result.verdict == mc::Verdict::Falsified
                           ? "base case fails (not an invariant)"
                           : "not inductive up to k=" + std::to_string(result.depth);
      if (result.verdict != mc::Verdict::Falsified) {
        proof_failed.push_back({outcomes.size(), expr});
      }
    }
    outcomes.push_back(std::move(outcome));
  }

  // Joint (mutual) induction rescue: candidates that are not inductive alone
  // may be inductive as a conjunction, possibly together with the targets.
  if (!proof_failed.empty()) {
    std::vector<ir::NodeRef> joint;
    for (const auto& p : proof_failed) joint.push_back(p.expr);
    const std::vector<ir::NodeRef> targets = task_.target_exprs();
    joint.insert(joint.end(), targets.begin(), targets.end());

    mc::KInductionEngine engine(task_.ts, engine_with_lemmas());
    const mc::EngineResult result = [&] {
      GENFV_TRACE_SPAN("flow", "prove_joint");
      return engine.prove_all(joint);
    }();
    prove_seconds_ += result.stats.seconds;
    if (result.verdict == mc::Verdict::Proven) {
      GENFV_LOG(Info, "lemma") << "joint induction rescued " << proof_failed.size()
                               << " candidate(s) at k=" << result.depth;
      for (const auto& p : proof_failed) {
        outcomes[p.outcome_index].status = CandidateStatus::Proven;
        outcomes[p.outcome_index].detail =
            "joint induction, k=" + std::to_string(result.depth);
        lemma_exprs_.push_back(p.expr);
        lemma_svas_.push_back(outcomes[p.outcome_index].sva);
      }
    }
  }
  return outcomes;
}

}  // namespace genfv::flow
