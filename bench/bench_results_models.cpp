/// E5 — Results §V, claim 2: "the quality of generated assertions was much
/// better in the case of LLMs from OpenAI such as GPT-4-Turbo and GPT-4o
/// compared to Llama or Gemini".
///
/// Runs the Fig. 2 repair flow for every (model, design, seed) triple and
/// aggregates per model: designs solved (majority over seeds), useful-
/// assertion rate (proven / generated), hallucination rate caught by the
/// gate, and syntax-level rejects. The ranking emerges from the profiles'
/// insight depth and noise levels — it is not hard-coded in the flow.

#include "bench_common.hpp"

namespace genfv {
namespace {

void run_experiment() {
  bench::print_header(
      "E5: model-quality comparison over the design zoo (3 seeds per cell)",
      "Results (V), claim 2",
      "OpenAI-profile models out-generate Llama/Gemini profiles on deep "
      "(XOR/one-hot) invariants and hallucinate less.");

  const std::uint64_t seeds[] = {1, 7, flow::JobSpec::cli().seed};

  std::vector<std::string> columns{"design"};
  for (const auto& model : genai::known_models()) columns.push_back(model);
  util::Table per_design(columns);
  struct Aggregate {
    std::size_t solved = 0;
    std::size_t candidates = 0;
    std::size_t proven = 0;
    std::size_t sim_falsified = 0;
    std::size_t syntax = 0;
    double iterations = 0;
    double runs = 0;
  };
  std::vector<Aggregate> agg(genai::known_models().size());

  for (const auto& info : designs::all_designs()) {
    std::vector<std::string> row{info.name};
    std::size_t model_index = 0;
    for (const auto& model : genai::known_models()) {
      std::size_t wins = 0;
      for (const std::uint64_t seed : seeds) {
        auto task = designs::make_task(info);
        flow::JobSpec spec = flow::JobSpec::cli();
        spec.model = model;
        spec.seed = seed;
        const flow::FlowReport report = flow::run_flow(spec, task);
        if (report.all_targets_proven()) ++wins;
        auto& a = agg[model_index];
        a.candidates += report.candidates_total();
        a.proven += report.candidates_with(flow::CandidateStatus::Proven);
        a.sim_falsified += report.candidates_with(flow::CandidateStatus::SimFalsified);
        a.syntax += report.candidates_with(flow::CandidateStatus::SyntaxRejected) +
                    report.candidates_with(flow::CandidateStatus::CompileRejected);
        a.iterations += static_cast<double>(report.iterations.size());
        a.runs += 1;
      }
      if (wins >= 2) ++agg[model_index].solved;
      row.push_back(std::to_string(wins) + "/3");
      ++model_index;
    }
    per_design.add_row(std::move(row));
  }
  std::printf("Per-design convergence (seeds solved out of 3):\n%s\n",
              per_design.to_string().c_str());

  util::Table summary({"model", "designs solved", "useful-assertion rate",
                       "gate-caught hallucinations", "syntax/compile rejects",
                       "avg iterations"});
  std::size_t model_index = 0;
  for (const auto& model : genai::known_models()) {
    const auto& a = agg[model_index++];
    const double useful =
        a.candidates == 0 ? 0.0
                          : 100.0 * static_cast<double>(a.proven) /
                                static_cast<double>(a.candidates);
    summary.add_row({model,
                     std::to_string(a.solved) + "/" +
                         std::to_string(designs::all_designs().size()),
                     util::fmt_double(useful, 1) + "%", std::to_string(a.sim_falsified),
                     std::to_string(a.syntax),
                     util::fmt_double(a.iterations / std::max(a.runs, 1.0), 2)});
  }
  std::printf("Aggregate model quality:\n%s\n", summary.to_string().c_str());
  std::printf("Expected shape (paper): OpenAI profiles solve the full zoo with "
              ">70%% useful assertions; Llama/Gemini miss the ECC/Gray designs "
              "and produce several times more gate-rejected output.\n\n");
}

}  // namespace
}  // namespace genfv

int main(int, char**) {
  genfv::run_experiment();
  return 0;  // table-only experiment: no micro-timing registrations
}
