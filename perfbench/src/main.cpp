/// \file main.cpp
/// genfv benchmark.
///
///   perfbench --workload <cli_flows|serve_cold|serve_regression>
///             --seed <n> --seconds <s> --trace <0|1> --cli <path to genfv_cli>
///
/// --trace 0 (timed mode): set up several times (median = setup_s), then
/// run as many whole passes of the seeded job set as fit --seconds (to the
/// nearest pass, at least 100 jobs) with telemetry Off, and report the
/// end-to-end metrics. Before each pass the workload returns the program
/// to the state setup left it in; that time is not measured.
///
/// --trace 1 (traced mode): run one pass untraced, the same pass at
/// TelemetryLevel::Tracing, and it untraced again; fold the trace into a
/// per-layer self-time table, report the per-layer metrics and the tracing
/// overhead, and compare in-process jobs against the genfv_cli binary
/// (parity check).
///
/// The last line of stdout is one JSON object: {"correct", "attempted",
/// "failed", "metrics": {name: {"value", "unit"}}}. The exit code is 0 only
/// when every output check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ledger.hpp"

namespace {

using namespace perfbench;
using genfv::util::TelemetryLevel;

constexpr int kSetups = 5;
constexpr std::size_t kMinJobs = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <cli_flows|serve_cold|"
               "serve_regression> --seed <n> --seconds <s> --trace <0|1> --cli <genfv_cli>\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " requires a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--cli") args.cli = value;
      else usage("unknown option " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cli_flows") return make_cli_flows();
  if (name == "serve_cold") return make_serve_cold();
  if (name == "serve_regression") return make_serve_regression();
  usage("unknown workload '" + name + "'");
}

double seconds_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The end-to-end metrics of a measured phase. error_rate and
/// llm_tokens_per_job are printed with the rest but reported in the JSON only
/// by the traced mode: both read 0 on most workloads of a correct commit.
struct EndToEnd {
  std::vector<Metric> bounded;  ///< the JSON metrics of the timed mode
  double error_rate = 0.0;
  double llm_tokens_per_job = 0.0;
};

EndToEnd end_to_end(const PassStats& s, double wall_s, double cpu_s,
                    const std::vector<double>& setups) {
  const auto jobs = static_cast<double>(s.jobs);
  EndToEnd e;
  e.bounded = {
      {"setup_s", quantile(setups, 0.5), "s", setups.size()},
      {"latency_p50_ms", quantile(s.latency_ms, 0.5), "ms", s.latency_ms.size()},
      {"latency_p90_ms", quantile(s.latency_ms, 0.9), "ms", s.latency_ms.size()},
      {"throughput_jobs_per_s", ratio(jobs, wall_s), "1/s", s.jobs},
      {"cpu_ms_per_job", ratio(cpu_s * 1e3, jobs), "ms", s.jobs},
      {"proven_ratio", ratio(static_cast<double>(s.proven), static_cast<double>(s.targets)),
       "ratio", s.targets},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
  e.error_rate = ratio(static_cast<double>(s.errors), jobs);
  e.llm_tokens_per_job = ratio(static_cast<double>(s.llm_tokens), jobs);
  std::vector<Metric> shown = e.bounded;
  shown.push_back({"error_rate", e.error_rate, "ratio", s.jobs});
  shown.push_back({"llm_tokens_per_job", e.llm_tokens_per_job, "tokens", s.jobs});
  print_metrics("end-to-end:", shown);
  return e;
}

void print_failures(const PassStats& s) {
  for (const std::string& f : s.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
}

int timed_mode(const Args& args, Workload& workload, const std::vector<double>& setups) {
  PassStats stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double last_pass_s = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    // Whole passes only, as many as fit --seconds to the nearest pass, so
    // a pass time near a multiple of --seconds cannot halve the sample.
    if (stats.jobs >= kMinJobs && wall_s + last_pass_s / 2 > args.seconds) break;
    workload.prepare_pass();  // outside the measured totals
    const double cpu0 = cpu_seconds();
    const std::uint64_t pass_start = now_ns();
    workload.run_pass(pass, stats);
    last_pass_s = seconds_since(pass_start);
    cpu_s += cpu_seconds() - cpu0;
    wall_s += last_pass_s;
    std::printf("pass %zu: %.3f s, %zu jobs so far\n", pass, last_pass_s, stats.jobs);
  }
  std::printf("workload %s seed %llu: %zu jobs in %.3f s (telemetry off)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), stats.jobs,
              wall_s);
  const EndToEnd e = end_to_end(stats, wall_s, cpu_s, setups);
  print_failures(stats);
  print_result(stats.errors == 0, stats.jobs, stats.errors, e.bounded);
  return stats.errors == 0 ? 0 : 1;
}

int traced_mode(const Args& args, Workload& workload, const std::vector<double>& setups) {
  auto& registry = genfv::util::metrics();
  const int main_thread = genfv::util::telemetry_thread_id();

  // The same pass three times: untraced, traced, untraced. The overhead
  // baseline averages the two untraced runs, so warm-up and drift cancel.
  PassStats untraced;
  workload.prepare_pass();
  std::uint64_t start = now_ns();
  workload.run_pass(0, untraced);
  double untraced_s = seconds_since(start);

  workload.prepare_pass();
  workload.probe().sums.clear();
  registry.reset();
  genfv::util::trace_reset();
  genfv::util::set_trace_thread_name("main");
  genfv::util::set_telemetry_level(TelemetryLevel::Tracing);
  PassStats traced;
  const double cpu0 = cpu_seconds();
  start = now_ns();
  workload.run_pass(0, traced);
  const double traced_s = seconds_since(start);
  const double cpu_s = cpu_seconds() - cpu0;
  genfv::util::set_telemetry_level(TelemetryLevel::Off);
  const std::vector<genfv::util::TraceEventView> events = genfv::util::trace_snapshot();
  // Snapshot now: the serve.cache and serve.sessions counters count with
  // telemetry off too, and the pass below would add to them.
  const std::map<std::string, std::int64_t> counters = registry.snapshot_values();
  const Probe probe = workload.probe();
  workload.prepare_pass();
  start = now_ns();
  workload.run_pass(0, untraced);
  untraced_s += seconds_since(start);
  const std::set<int> clients = workload.client_threads();
  const Ledger ledger = fold_trace(events, main_thread, clients, probe);

  std::printf("workload %s seed %llu: traced pass of %zu jobs in %.3f s (%zu events, %llu "
              "dropped)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), traced.jobs,
              traced_s, events.size(),
              static_cast<unsigned long long>(genfv::util::trace_dropped_events()));
  const EndToEnd e = end_to_end(traced, traced_s, cpu_s, setups);

  // --- per-layer self-time table --------------------------------------------
  std::printf("\nself time per layer (%s), summing to the job wall time:\n",
              clients.empty() ? "main thread, CLI job wall time"
                              : "serve request latency = admit + queue wait + worker wall");
  double table_sum = 0.0;
  for (const char* layer :
       {"hdl", "genai", "flow", "mc", "sat", "serve", "unattributed"}) {
    const auto it = ledger.self_ms.find(layer);
    const double ms = it == ledger.self_ms.end() ? 0.0 : it->second;
    table_sum += ms;
    std::printf("  %-14s %12.3f ms  %6.2f%%\n", layer, ms, 100.0 * ratio(ms, ledger.wall_ms));
  }
  std::printf("  %-14s %12.3f ms  (measured job wall time %.3f ms)\n", "sum", table_sum,
              ledger.wall_ms);
  std::printf("folds (no public boundary on these paths): bitblast and mc/unroller -> mc/sat "
              "self time; sim -> flow.screen_ms and genai.complete_ms; candidate SVA compile "
              "-> flow; ir::struct_hash -> serve.cache_lookup_ms; serve session elaboration "
              "-> serve.admit_ms\n");
  std::printf("not measured by any workload: frontend (AIGER/BTOR2 parse), mc/portfolio, "
              "mc/exchange, sharded PDR (see perfbench/README.md)\n");
  const double tput_untraced = ratio(static_cast<double>(untraced.jobs), untraced_s);
  const double tput_traced = ratio(static_cast<double>(traced.jobs), traced_s);
  std::printf("tracing overhead: throughput %.3f jobs/s untraced vs %.3f jobs/s traced "
              "(traced/untraced = %.3f)\n",
              tput_untraced, tput_traced, ratio(tput_traced, tput_untraced));

  // --- parity with the shipped CLI ------------------------------------------
  std::vector<std::string> parity_log;
  std::size_t mismatches = 0;
  if (!args.cli.empty()) mismatches = workload.parity(args.cli, parity_log);
  if (!parity_log.empty()) {
    std::printf("\nparity with %s (%zu comparisons, %zu mismatches):\n", args.cli.c_str(),
                parity_log.size(), mismatches);
    for (const std::string& line : parity_log) std::printf("  %s\n", line.c_str());
  }

  // --- per-layer metrics -----------------------------------------------------
  const auto reg = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto reg_ms = [&](const char* name) { return reg(name) / 1e6; };
  const auto self = [&](const char* layer) {
    const auto it = ledger.self_ms.find(layer);
    return it == ledger.self_ms.end() ? 0.0 : it->second;
  };
  const double jobs = static_cast<double>(traced.jobs);
  const double hits = reg("serve.cache.hits");
  const double near = reg("serve.cache.near_hits");
  const double misses = reg("serve.cache.misses");
  const double reused = reg("serve.sessions.reused");
  const std::vector<Metric> layers = {
      {"hdl.elaborate_ms", ledger.span("bench/hdl.elaborate"), "ms", traced.jobs},
      {"hdl.elaborations", probe.get("hdl.elaborations") + reg("serve.sessions.created"),
       "count", traced.jobs},
      {"genai.complete_ms", ledger.span("bench/genai.complete"), "ms", traced.jobs},
      {"genai.completions", probe.get("genai.completions"), "count", traced.jobs},
      {"genai.prompt_tokens", probe.get("genai.prompt_tokens"), "tokens", traced.jobs},
      {"genai.completion_tokens", probe.get("genai.completion_tokens"), "tokens", traced.jobs},
      {"genai.simulated_latency_s", probe.get("genai.simulated_latency_s"), "s", traced.jobs},
      {"flow.run_ms", self("flow"), "ms", traced.jobs},
      {"flow.screen_ms", reg_ms("flow.screen_ns"), "ms", traced.jobs},
      {"flow.candidate_prove_ms", reg_ms("flow.prove_ns"), "ms", traced.jobs},
      {"flow.target_prove_ms",
       ledger.span("flow/prove_targets") + ledger.span("flow/prove_joint") +
           ledger.span("flow/prove_target"),
       "ms", traced.jobs},
      {"flow.candidates", probe.get("flow.candidates"), "count", traced.jobs},
      {"flow.sim_falsified", probe.get("flow.sim_falsified"), "count", traced.jobs},
      {"flow.lemmas_admitted", probe.get("flow.lemmas_admitted"), "count", traced.jobs},
      {"flow.iterations", probe.get("flow.iterations"), "count", traced.jobs},
      {"flow.admit_ratio", ratio(probe.get("flow.lemmas_admitted"), probe.get("flow.candidates")),
       "ratio", traced.jobs},
      {"mc.self_ms", self("mc"), "ms", traced.jobs},
      {"mc.kinduction_ms", ledger.span("mc/kinduction_prove"), "ms", traced.jobs},
      {"mc.pdr_ms", ledger.span("pdr/prove_all"), "ms", traced.jobs},
      {"mc.pdr.blocking_ms", reg_ms("pdr.blocking_ns"), "ms", traced.jobs},
      {"mc.pdr.propagate_ms", reg_ms("pdr.propagate_ns"), "ms", traced.jobs},
      {"mc.pdr.obligations", reg("pdr.obligations_created"), "count", traced.jobs},
      {"mc.pdr.framedb_wait_ms", reg_ms("pdr.framedb_mutex_wait_ns"), "ms", traced.jobs},
      {"sat.self_ms", self("sat"), "ms", traced.jobs},
      {"sat.solves", reg("sat.solves"), "count", traced.jobs},
      {"sat.conflicts", reg("sat.conflicts"), "count", traced.jobs},
      {"sat.propagations", reg("sat.propagations"), "count", traced.jobs},
      {"sat.solve_ms", reg_ms("sat.solve_ns"), "ms", traced.jobs},
      {"sat.inprocess_ms", ledger.span("sat/inprocess"), "ms", traced.jobs},
      {"sat.pool_rebuilds", reg("sat.pool_rebuilds"), "count", traced.jobs},
      {"sat.conflicts_per_job", ratio(reg("sat.conflicts"), jobs), "count", traced.jobs},
      {"serve.self_ms", self("serve"), "ms", traced.jobs},
      {"serve.admit_ms", probe.get("serve.admit_ms"), "ms", traced.jobs},
      {"serve.queue_wait_ms", probe.get("serve.queue_wait_ms"), "ms", traced.jobs},
      {"serve.cache_lookup_ms", ledger.span("serve/cache_lookup"), "ms", traced.jobs},
      {"serve.recertify_ms", ledger.span("serve/recertify"), "ms", traced.jobs},
      {"serve.job_ms", ledger.span("serve/job"), "ms", traced.jobs},
      {"serve.cache.hits", hits, "count", traced.jobs},
      {"serve.cache.near_hits", near, "count", traced.jobs},
      {"serve.cache.misses", misses, "count", traced.jobs},
      {"serve.cache.rejected", reg("serve.cache.rejected"), "count", traced.jobs},
      {"serve.cache.hit_ratio", ratio(hits, hits + near + misses), "ratio", traced.jobs},
      {"serve.near.seeded", probe.get("serve.near.seeded"), "count", traced.jobs},
      {"serve.near.graduated_ratio",
       ratio(probe.get("serve.near.graduated"), probe.get("serve.near.seeded")), "ratio",
       traced.jobs},
      {"serve.sessions.reused_ratio", ratio(reused, reused + reg("serve.sessions.created")),
       "ratio", traced.jobs},
      {"ledger.wall_ms", ledger.wall_ms, "ms", traced.jobs},
      {"ledger.unattributed_ms", self("unattributed"), "ms", traced.jobs},
      {"trace.throughput_untraced_jobs_per_s", tput_untraced, "1/s", untraced.jobs},
      {"trace.throughput_traced_jobs_per_s", tput_traced, "1/s", traced.jobs},
      {"trace.overhead_ratio", ratio(tput_traced, tput_untraced), "ratio", traced.jobs},
      {"parity.mismatches", static_cast<double>(mismatches), "count", parity_log.size()},
      {"error_rate", e.error_rate, "ratio", traced.jobs},
      {"llm_tokens_per_job", e.llm_tokens_per_job, "tokens", traced.jobs},
  };
  std::printf("\n");
  print_metrics("per-layer (totals over the traced pass):", layers);
  untraced.merge(traced);
  print_failures(untraced);
  const std::size_t failed = untraced.errors + mismatches;
  print_result(failed == 0, untraced.jobs, failed, layers);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  genfv::util::set_telemetry_level(TelemetryLevel::Off);
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  try {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      const std::uint64_t start = now_ns();
      workload->setup(args.seed);
      setups.push_back(seconds_since(start));
      std::printf("setup %d: %.3f s\n", i, setups.back());
    }
    workload->probe().sums.clear();
    return args.trace ? traced_mode(args, *workload, setups)
                      : timed_mode(args, *workload, setups);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
