#include "flow/report.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace genfv::flow {

std::string to_string(CandidateStatus status) {
  switch (status) {
    case CandidateStatus::SyntaxRejected: return "syntax-rejected";
    case CandidateStatus::CompileRejected: return "compile-rejected";
    case CandidateStatus::Duplicate: return "duplicate";
    case CandidateStatus::SimFalsified: return "sim-falsified";
    case CandidateStatus::ProofFailed: return "proof-failed";
    case CandidateStatus::Proven: return "proven";
  }
  return "?";
}

bool FlowReport::all_targets_proven() const {
  return !targets.empty() && targets_proven() == targets.size();
}

std::size_t FlowReport::targets_proven() const {
  std::size_t n = 0;
  for (const auto& t : targets) n += t.result.verdict == mc::Verdict::Proven ? 1 : 0;
  return n;
}

std::size_t FlowReport::candidates_total() const {
  std::size_t n = 0;
  for (const auto& it : iterations) n += it.candidates.size();
  return n;
}

std::size_t FlowReport::candidates_with(CandidateStatus status) const {
  std::size_t n = 0;
  for (const auto& it : iterations) {
    for (const auto& c : it.candidates) {
      if (c.status == status) ++n;
    }
  }
  return n;
}

std::string FlowReport::to_string() const {
  std::ostringstream out;
  out << "=== " << flow << " | design=" << design << " | model=" << model;
  if (!engine.empty()) out << " | engine=" << engine;
  out << " | seed=" << seed << " ===\n";
  for (const auto& it : iterations) {
    out << "iteration " << it.index << ": " << it.candidates.size() << " candidates, "
        << it.lemmas_admitted << " admitted (" << it.prompt_tokens << " prompt tok, "
        << it.completion_tokens << " completion tok, "
        << util::format_duration(it.llm_latency_seconds) << " model latency)\n";
    for (const auto& c : it.candidates) {
      out << "  [" << flow::to_string(c.status) << "] " << c.sva;
      if (!c.detail.empty()) out << "  (" << c.detail << ")";
      out << '\n';
    }
  }
  out << "lemmas admitted: " << admitted_lemmas.size() << '\n';
  for (const auto& lemma : admitted_lemmas) out << "  assume " << lemma << '\n';
  for (const auto& t : targets) {
    out << "target " << t.name << ": " << t.result.summary() << '\n';
  }
  out << "time: total " << util::format_duration(total_seconds) << ", model "
      << util::format_duration(llm_seconds) << ", prove "
      << util::format_duration(prove_seconds) << '\n';
  return out.str();
}

}  // namespace genfv::flow
