/// \file cli_workloads.cpp
/// The one-client CLI workload, cli_flows: Fig. 1 (`--flow helper`) and
/// Fig. 2 (`--flow cex`, the CLI default) over every zoo design x every
/// model profile. Each job is the in-process equivalent of one `genfv_cli`
/// run on its shipped defaults: task build, then the selected flow, with
/// exactly the options genfv_cli passes. The parity check also runs `--flow
/// plain` with the three shipped engine paths: kind, pdr (`--pdr-workers
/// auto`) and portfolio (threads, exchange on).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <regex>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "genai/simulated_llm.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace genfv;

namespace {

constexpr std::size_t kCliMaxK = 8;  // genfv_cli --max-k default

/// LLM seeds a flow job can draw: the CLI default 42 and seven seeds on
/// which every job of the set runs near its usual cost. On other seeds the
/// simulated model can send dual_accumulator into a repair loop two to three
/// times longer (seeds 2 and 3 with llama-3-70b, 6 with gpt-4-turbo), or on
/// rare ones minutes long. dual_accumulator is most of a pass, so one such
/// draw moves a run's throughput by a third: it would measure the draw, not
/// the code.
constexpr std::uint64_t kLlmSeeds[] = {42, 5, 7, 8, 9, 12, 14, 15};

std::uint64_t pick_llm_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return kLlmSeeds[mix_seed(seed, a, b) % std::size(kLlmSeeds)];
}

struct CliJob {
  std::string source;  ///< zoo design name or corpus path
  std::string flow;    ///< "helper" | "cex" | "plain"
  mc::EngineKind engine = mc::EngineKind::KInduction;
  std::string model = "gpt-4o";
  std::uint64_t llm_seed = 42;

  bool is_file() const { return source.find('/') != std::string::npos; }

  /// The genfv_cli arguments that select this job.
  std::string cli_args() const {
    std::string args = is_file() ? source : "demo " + source;
    args += " --flow " + flow;
    if (flow == "plain") {
      args += " --engine ";
      args += engine == mc::EngineKind::KInduction ? "kind"
              : engine == mc::EngineKind::Pdr      ? "pdr"
                                                   : "portfolio";
    } else {
      args += " --model " + model + " --seed " + std::to_string(llm_seed);
    }
    return args;
  }
};

/// One target's verdict as the CLI prints it.
struct TargetVerdict {
  mc::Verdict verdict = mc::Verdict::Unknown;
  std::size_t depth = 0;
  std::uint64_t conflicts = 0;
};

struct JobOutcome {
  std::vector<TargetVerdict> targets;
  std::vector<std::string> failures;
  std::size_t proven = 0;
  /// True when the conflict count and depth do not depend on thread timing.
  bool deterministic = true;
};

/// LlmClient decorator: times SimulatedLlm::complete and books tokens and
/// the modelled latency. The modelled latency is never added to host time.
class TimedLlm : public genai::LlmClient {
 public:
  TimedLlm(genai::LlmClient& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  genai::Completion complete(const genai::Prompt& prompt) override {
    genai::Completion c;
    {
      Section s("genai.complete");
      c = inner_.complete(prompt);
    }
    probe_.add("genai.completions", 1);
    probe_.add("genai.prompt_tokens", static_cast<double>(c.prompt_tokens));
    probe_.add("genai.completion_tokens", static_cast<double>(c.completion_tokens));
    probe_.add("genai.simulated_latency_s", c.latency_seconds);
    tokens_ += c.prompt_tokens + c.completion_tokens;
    return c;
  }
  std::string model_name() const override { return inner_.model_name(); }
  std::uint64_t tokens() const { return tokens_; }

 private:
  genai::LlmClient& inner_;
  Probe& probe_;
  std::uint64_t tokens_ = 0;
};

flow::VerificationTask build_task(const CliJob& job, Probe& probe) {
  if (job.is_file()) return flow::VerificationTask::from_file(job.source);
  Section s("hdl.elaborate");
  probe.add("hdl.elaborations", 1);
  return designs::make_task(job.source);
}

/// genfv_cli's run_plain with its defaults.
JobOutcome run_plain(const CliJob& job, flow::VerificationTask& task) {
  mc::EngineOptions base;
  base.max_steps = kCliMaxK;
  base.exchange = true;
  base.pdr_workers = 0;  // the CLI default is `auto`, not EngineOptions' 1
  base.pdr_ternary_lifting = false;
  base.pdr_seed_candidates = false;
  base.pdr_candidate_strikes = 2;
  base.sat_backend = "internal";
  base.sat_inprocess = true;

  JobOutcome out;
  out.deterministic = job.engine == mc::EngineKind::KInduction ||
                      (job.engine == mc::EngineKind::Pdr && mc::auto_pdr_workers(task.ts) == 1);
  const std::vector<ir::NodeRef> targets = task.target_exprs();
  auto engine = mc::make_engine(job.engine, task.ts, base);
  const mc::EngineResult result = engine->prove_all(targets);
  out.targets.push_back({result.verdict, result.depth, result.stats.conflicts});
  if (result.verdict == mc::Verdict::Proven) out.proven = targets.size();
  if (const std::string bad = check_verdict(job.source, result.verdict); !bad.empty()) {
    out.failures.push_back(bad);
  }
  if (result.verdict == mc::Verdict::Falsified) {
    const std::string bad = result.cex ? replay_cex(task.ts, *result.cex, targets)
                                       : "falsified without a counterexample";
    if (!bad.empty()) out.failures.push_back(job.source + ": " + bad);
  }
  return out;
}

/// genfv_cli's run_task for the two LLM flows, with its defaults.
JobOutcome run_flow(const CliJob& job, flow::VerificationTask& task, Probe& probe,
                    std::uint64_t& tokens) {
  flow::FlowOptions options;
  options.engine.max_k = kCliMaxK;
  options.review.sim_screen = true;
  options.target_engine = mc::EngineKind::KInduction;
  options.exchange = true;
  options.pdr_workers = 0;  // the CLI passes auto; FlowOptions defaults to 1
  options.pdr_ternary = false;
  options.pdr_seed_candidates = false;
  options.pdr_candidate_strikes = 2;
  options.engine.sat_backend = "internal";
  options.engine.sat_inprocess = true;

  genai::SimulatedLlm llm(genai::profile_by_name(job.model), job.llm_seed);
  TimedLlm timed(llm, probe);
  flow::FlowReport report;
  {
    Section s("flow.run");
    if (job.flow == "helper") {
      report = flow::HelperGenFlow(timed, options).run(task);
    } else {
      report = flow::CexRepairFlow(timed, options).run(task);
    }
  }
  tokens += timed.tokens();
  probe.add("flow.candidates", static_cast<double>(report.candidates_total()));
  probe.add("flow.sim_falsified",
            static_cast<double>(report.candidates_with(flow::CandidateStatus::SimFalsified)));
  probe.add("flow.lemmas_admitted", static_cast<double>(report.admitted_lemmas.size()));
  probe.add("flow.iterations", static_cast<double>(report.iterations.size()));

  JobOutcome out;
  if (report.targets.size() != task.target_indices.size()) {
    out.failures.push_back(job.source + ": flow reported " +
                           std::to_string(report.targets.size()) + " targets");
  }
  for (std::size_t i = 0; i < report.targets.size(); ++i) {
    const mc::InductionResult& r = report.targets[i].result;
    out.targets.push_back({r.verdict, r.k, r.stats.conflicts});
    if (r.verdict == mc::Verdict::Proven) ++out.proven;
    if (const std::string bad = check_verdict(job.source, r.verdict); !bad.empty()) {
      out.failures.push_back(bad);
    }
    if (r.verdict == mc::Verdict::Falsified && i < task.target_indices.size()) {
      const ir::NodeRef target = task.ts.property(task.target_indices[i]).expr;
      const std::string bad = r.base_cex ? replay_cex(task.ts, *r.base_cex, {target})
                                         : "falsified without a counterexample";
      if (!bad.empty()) out.failures.push_back(job.source + ": " + bad);
    }
  }
  return out;
}

JobOutcome run_job(const CliJob& job, Probe& probe, std::uint64_t& tokens) {
  flow::VerificationTask task = build_task(job, probe);
  return job.flow == "plain" ? run_plain(job, task) : run_flow(job, task, probe, tokens);
}

/// Run `job` as one timed CLI-equivalent job and book it into `out`.
void run_measured(const CliJob& job, Probe& probe, PassStats& out) {
  const std::uint64_t start = now_ns();
  std::uint64_t tokens = 0;
  JobOutcome outcome;
  std::string error;
  {
    Section s("job");
    try {
      outcome = run_job(job, probe, tokens);
    } catch (const std::exception& e) {
      error = job.cli_args() + ": threw " + e.what();
    }
  }
  const double latency_ms = static_cast<double>(now_ns() - start) / 1e6;
  if (latency_ms >= 5000.0) {
    std::printf("slow job: %s (%.3f s)\n", job.cli_args().c_str(), latency_ms / 1e3);
  }
  out.latency_ms.push_back(latency_ms);
  ++out.jobs;
  out.llm_tokens += tokens;
  out.targets += std::max<std::size_t>(outcome.targets.size(), 1);
  out.proven += outcome.proven;
  if (!error.empty()) {
    out.fail(error);
  } else if (!outcome.failures.empty()) {
    out.fail(job.cli_args() + ": " + outcome.failures.front());
  }
}

/// Run genfv_cli with `args` and return its standard output.
std::string run_cli(const std::string& cli, const std::string& args) {
  std::string output;
  FILE* pipe = ::popen((cli + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return output;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, n);
  ::pclose(pipe);
  return output;
}

/// Parse the verdict lines genfv_cli prints: "target <name>: <verdict> (k=K,
/// N SAT calls, C conflicts, ...)" for flows, "plain <engine>: <verdict>
/// (depth=D, N SAT calls, C conflicts, ...)" for --flow plain.
std::vector<TargetVerdict> parse_cli_verdicts(const std::string& output, bool plain) {
  static const std::regex flow_line(
      R"(^target [^:]+: (\w+) \(k=(\d+), \d+ SAT calls, (\d+) conflicts)");
  static const std::regex plain_line(
      R"(^plain [^:]+: (\w+) \(depth=(\d+), \d+ SAT calls, (\d+) conflicts)");
  std::vector<TargetVerdict> verdicts;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t end = output.find('\n', pos);
    if (end == std::string::npos) end = output.size();
    const std::string line = output.substr(pos, end - pos);
    pos = end + 1;
    std::smatch m;
    if (!std::regex_search(line, m, plain ? plain_line : flow_line)) continue;
    TargetVerdict v;
    const std::string word = m[1].str();
    v.verdict = word == "proven"      ? mc::Verdict::Proven
                : word == "falsified" ? mc::Verdict::Falsified
                                      : mc::Verdict::Unknown;
    v.depth = std::stoull(m[2].str());
    v.conflicts = std::stoull(m[3].str());
    verdicts.push_back(v);
  }
  return verdicts;
}

std::string describe(const std::vector<TargetVerdict>& verdicts) {
  std::string text;
  for (const TargetVerdict& v : verdicts) {
    if (!text.empty()) text += "; ";
    text += mc::to_string(v.verdict) + " depth=" + std::to_string(v.depth) +
            " conflicts=" + std::to_string(v.conflicts);
  }
  return text.empty() ? "(no verdict)" : text;
}

/// Run every job in-process and through the CLI; compare verdicts, and depth
/// and conflicts where the job is deterministic.
std::size_t compare_with_cli(const std::vector<CliJob>& jobs, const std::string& cli,
                             std::vector<std::string>& log) {
  std::size_t mismatches = 0;
  for (const CliJob& job : jobs) {
    Probe scratch;
    std::uint64_t tokens = 0;
    JobOutcome in_process;
    try {
      in_process = run_job(job, scratch, tokens);
    } catch (const std::exception& e) {
      in_process.failures.push_back(e.what());
    }
    const std::vector<TargetVerdict> printed =
        parse_cli_verdicts(run_cli(cli, job.cli_args()), job.flow == "plain");
    bool same = printed.size() == in_process.targets.size() && !printed.empty();
    for (std::size_t i = 0; same && i < printed.size(); ++i) {
      same = printed[i].verdict == in_process.targets[i].verdict;
      if (in_process.deterministic) {
        same = same && printed[i].depth == in_process.targets[i].depth &&
               printed[i].conflicts == in_process.targets[i].conflicts;
      }
    }
    if (!same) ++mismatches;
    log.push_back(std::string(same ? "same " : "DIFF ") +
                  (in_process.deterministic ? "[full]    " : "[verdict] ") + job.cli_args() +
                  (same ? "" : " | in-process: " + describe(in_process.targets) +
                                   " | cli: " + describe(printed)));
  }
  return mismatches;
}

/// Fig. 1 and Fig. 2 over every zoo design x every model profile, shuffled
/// per pass, run by one sequential client.
class CliFlows : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    jobs_.clear();
    for (const std::string& design : zoo_designs()) {
      for (const std::string& model : genai::known_models()) {
        for (const char* flow : {"helper", "cex"}) {
          jobs_.push_back(CliJob{design, flow, mc::EngineKind::KInduction, model, 0});
        }
      }
    }
    // Warm-up: one Fig. 1 run per design on the CLI's default model.
    Probe scratch;
    for (const std::string& design : zoo_designs()) {
      std::uint64_t tokens = 0;
      run_job(CliJob{design, "helper", mc::EngineKind::KInduction, "gpt-4o", 42}, scratch,
              tokens);
    }
  }

  void run_pass(std::size_t pass, PassStats& out) override {
    std::vector<std::size_t> order(jobs_.size());
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, mix_seed(seed_, pass, 0xC0DE));
    for (const std::size_t index : order) {
      CliJob job = jobs_[index];
      job.llm_seed = pick_llm_seed(seed_, pass, index);
      run_measured(job, probe_, out);
    }
  }

  /// One job per (design, flow), and one per (source, engine) of `--flow
  /// plain` over the zoo and tests/corpus/ with the three shipped engines.
  std::size_t parity(const std::string& cli, std::vector<std::string>& log) override {
    std::vector<CliJob> jobs;
    for (const std::string& design : zoo_designs()) {
      for (const char* flow : {"helper", "cex"}) {
        jobs.push_back(CliJob{design, flow, mc::EngineKind::KInduction, "gpt-4o",
                              pick_llm_seed(seed_, 0xBA5E, jobs.size())});
      }
    }
    std::vector<std::string> sources = zoo_designs();
    for (const std::string& file : corpus_files()) sources.push_back(file);
    for (const std::string& source : sources) {
      for (const mc::EngineKind engine :
           {mc::EngineKind::KInduction, mc::EngineKind::Pdr, mc::EngineKind::Portfolio}) {
        jobs.push_back(CliJob{source, "plain", engine, "gpt-4o", 0});
      }
    }
    return compare_with_cli(jobs, cli, log);
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<CliJob> jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_cli_flows() { return std::make_unique<CliFlows>(); }

}  // namespace perfbench
