/// E7 — paper Conclusion: "one must be aware of the limitations of using
/// GenAI especially for artificial hallucinations that produce vulnerable
/// results. It is recommended to analyze the output from the LLM before
/// using it productively."
///
/// Ablates the mechanical review gate using the noisiest model profile:
/// with the simulation screen ON, hallucinations die cheaply in simulation;
/// with it OFF they reach the prover and burn SAT time there. Either way the
/// mandatory proof gate admits zero unsound lemmas — the soundness firewall
/// the paper's human-in-the-loop recommendation asks for, made mechanical.

#include "bench_common.hpp"

namespace genfv {
namespace {

struct GateStats {
  std::size_t candidates = 0;
  std::size_t sim_falsified = 0;
  std::size_t proof_failed = 0;
  std::size_t admitted = 0;
  double prove_seconds = 0;
  std::size_t proven_designs = 0;
};

GateStats run_zoo(bool sim_screen) {
  GateStats stats;
  for (const auto& info : designs::all_designs()) {
    for (const std::uint64_t seed : {3ull, 1337ull}) {
      auto task = designs::make_task(info);
      flow::JobSpec spec = flow::JobSpec::cli();
      spec.model = "llama-3-70b";
      spec.seed = seed;
      spec.sim_screen = sim_screen;
      const flow::FlowReport report = flow::run_flow(spec, task);
      stats.candidates += report.candidates_total();
      stats.sim_falsified += report.candidates_with(flow::CandidateStatus::SimFalsified);
      stats.proof_failed += report.candidates_with(flow::CandidateStatus::ProofFailed);
      stats.admitted += report.admitted_lemmas.size();
      stats.prove_seconds += report.prove_seconds;
      if (report.all_targets_proven()) ++stats.proven_designs;
    }
  }
  return stats;
}

void run_experiment() {
  bench::print_header(
      "E7: review-gate ablation (llama-3-70b profile, 2 seeds x full zoo)",
      "Conclusion (hallucination risk / human-in-the-loop)",
      "The simulation screen kills hallucinations cheaply; the proof gate "
      "keeps every verdict sound either way.");

  util::Table table({"configuration", "candidates", "sim-falsified", "proof-failed",
                     "lemmas admitted", "prover time", "designs proven"});
  const GateStats with_screen = run_zoo(/*sim_screen=*/true);
  const GateStats without_screen = run_zoo(/*sim_screen=*/false);
  auto add = [&table](const char* name, const GateStats& s) {
    table.add_row({name, std::to_string(s.candidates), std::to_string(s.sim_falsified),
                   std::to_string(s.proof_failed), std::to_string(s.admitted),
                   util::format_duration(s.prove_seconds),
                   std::to_string(s.proven_designs) + "/" +
                       std::to_string(2 * designs::all_designs().size())});
  };
  add("sim screen + proof gate", with_screen);
  add("proof gate only", without_screen);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Without the screen, the gate still admits only proven lemmas (soundness "
      "is engine-enforced) but unsound candidates now consume prover time as "
      "proof-failed entries instead of dying in microsecond simulations.\n\n");
}

}  // namespace
}  // namespace genfv

int main(int, char**) {
  genfv::run_experiment();
  return 0;  // table-only experiment: no micro-timing registrations
}
