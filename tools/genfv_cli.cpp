/// genfv_cli — command-line front door to the library: `prove` (HDL with SVA
/// targets, or an AIGER/BTOR2 file with embedded ones), the bare-file
/// shorthand for it, `demo` (a zoo design), `sat` (a DIMACS CNF, the DRAT
/// check's harness), `designs` and `models`. kUsage below is the one-screen
/// summary; docs/cli.md documents every command and option, and the
/// defaults are flow::JobSpec::cli(). Options take "--opt value" or
/// "--opt=value".

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "designs/design.hpp"
#include "flow/job.hpp"
#include "flow/lemma_io.hpp"
#include "flow/lemma_manager.hpp"
#include "frontend/aiger.hpp"
#include "genai/model_profile.hpp"
#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "mc/engine.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "sim/vcd.hpp"
#include "util/files.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace genfv;

struct CliOptions {
  std::string command;
  std::string rtl_path;
  std::vector<std::string> properties;
  /// Parallel to `properties`: per-property engine override (plain flow).
  std::vector<std::optional<mc::EngineKind>> property_engines;
  std::string design;
  /// JobSpec::cli() with the flags applied; main() fills in the source.
  flow::JobSpec spec = flow::JobSpec::cli();
  std::string drat_out;
  std::string dump_ts_path;
  std::string dump_aiger_path;
  std::string vcd_path;
  std::string emit_lemmas_path;
  std::string use_lemmas_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  double progress_seconds = 0.0;  // 0 = no heartbeat
  bool verbose = false;
};

constexpr const char* kUsage =
    "usage:\n"
    "  genfv_cli prove --rtl <file.sv> --property \"[engine:]<sva>\" [options]\n"
    "  genfv_cli prove --rtl <file.aag|aig|btor|btor2> [--property \"[engine:]<name>\"]\n"
    "  genfv_cli <file.aag|aig|btor|btor2|sv> [options]   (prove shorthand)\n"
    "  genfv_cli demo <design> [options]\n"
    "  genfv_cli sat <file.cnf> [--drat-out <path>]\n"
    "  genfv_cli designs | models\n"
    "  genfv_cli --help\n"
    "options: --flow cex|helper|direct|plain  --engine bmc|kind|pdr|portfolio\n"
    "         --drat-out <path>  --emit-lemmas <file>  --use-lemmas <file>\n"
    "         --model <name>  --seed <n>  --max-k <n>  --no-screen\n"
    "         --dump-ts <file>  --dump-aiger <file.aag>  --vcd <file>  --verbose\n"
    "         --trace-out <file.json>  --metrics-out <file.json>\n"
    "         --progress <seconds>\n"
    "full reference: docs/cli.md\n";

/// `--help` / `-h`: the usage text on stdout, exit 0.
[[noreturn]] void help() {
  std::fputs(kUsage, stdout);
  std::exit(0);
}

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fputs(kUsage, stderr);
  std::exit(2);
}

/// Throws UsageError for a malformed numeric flag (util::parse_number); every
/// other mistake calls usage() directly.
CliOptions parse_args(int argc, char** argv) {
  CliOptions opts;
  if (argc < 2) usage();
  opts.command = argv[1];
  if (opts.command == "--help" || opts.command == "-h") help();
  int i = 2;
  // Bare-file shorthand: `genfv_cli foo.aag` == `genfv_cli prove --rtl foo.aag`.
  if (opts.command != "prove" && opts.command != "demo" && opts.command != "sat" &&
      opts.command != "designs" && opts.command != "models" &&
      opts.command.rfind("--", 0) != 0 &&
      opts.command.find('.') != std::string::npos) {
    opts.rtl_path = opts.command;
    opts.command = "prove";
  }
  if (opts.command == "demo") {
    if (i >= argc) usage("demo requires a design name");
    opts.design = argv[i++];
  }
  if (opts.command == "sat") {
    if (i >= argc) usage("sat requires a DIMACS CNF file");
    opts.rtl_path = argv[i++];
  }
  // Support both "--opt value" and "--opt=value".
  std::string inline_value;
  bool has_inline_value = false;
  auto need_value = [&](const char* flag) -> std::string {
    if (has_inline_value) return inline_value;
    if (i >= argc) usage((std::string(flag) + " requires a value").c_str());
    return argv[i++];
  };
  while (i < argc) {
    std::string arg = argv[i++];
    has_inline_value = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg = arg.substr(0, eq);
      }
    }
    auto no_value = [&](const char* flag) {
      if (has_inline_value) usage((std::string(flag) + " takes no value").c_str());
    };
    if (arg == "--rtl") opts.rtl_path = need_value("--rtl");
    else if (arg == "--property") {
      // Optional per-property engine override: "<engine>:<sva>". Only a
      // prefix that names a known engine is treated as an override, so SVA
      // containing ':' elsewhere is unaffected.
      std::string value = need_value("--property");
      std::optional<mc::EngineKind> override_kind;
      const std::size_t colon = value.find(':');
      if (colon != std::string::npos) {
        if (const auto kind = mc::engine_kind_from_string(value.substr(0, colon))) {
          override_kind = *kind;
          value = value.substr(colon + 1);
        }
      }
      opts.properties.push_back(value);
      opts.property_engines.push_back(override_kind);
    }
    else if (arg == "--flow") {
      const std::string name = need_value("--flow");
      const auto kind = flow::flow_kind_from_string(name);
      if (!kind.has_value()) usage(("unknown flow '" + name + "'").c_str());
      opts.spec.flow = *kind;
    }
    else if (arg == "--engine") {
      const std::string name = need_value("--engine");
      const auto kind = mc::engine_kind_from_string(name);
      if (!kind.has_value()) usage(("unknown engine '" + name + "'").c_str());
      opts.spec.engine = *kind;
    }
    else if (arg == "--drat-out") opts.drat_out = need_value("--drat-out");
    else if (arg == "--model") {
      opts.spec.model = need_value("--model");
      genai::profile_by_name(opts.spec.model);  // throws UsageError when unknown
    }
    else if (arg == "--seed") {
      opts.spec.seed = util::parse_number<std::uint64_t>("--seed", need_value("--seed"));
    }
    else if (arg == "--max-k") {
      opts.spec.max_steps = util::parse_number<std::size_t>("--max-k", need_value("--max-k"));
    }
    else if (arg == "--no-screen") { no_value("--no-screen"); opts.spec.sim_screen = false; }
    else if (arg == "--dump-ts") opts.dump_ts_path = need_value("--dump-ts");
    else if (arg == "--dump-aiger") opts.dump_aiger_path = need_value("--dump-aiger");
    else if (arg == "--vcd") opts.vcd_path = need_value("--vcd");
    else if (arg == "--trace-out") opts.trace_out_path = need_value("--trace-out");
    else if (arg == "--metrics-out") opts.metrics_out_path = need_value("--metrics-out");
    else if (arg == "--progress") {
      const std::string value = need_value("--progress");
      opts.progress_seconds = util::parse_number<double>("--progress", value);
      if (opts.progress_seconds <= 0.0) {
        usage(("--progress takes a positive number of seconds, got '" + value + "'").c_str());
      }
    }
    else if (arg == "--emit-lemmas") opts.emit_lemmas_path = need_value("--emit-lemmas");
    else if (arg == "--use-lemmas") opts.use_lemmas_path = need_value("--use-lemmas");
    else if (arg == "--verbose") { no_value("--verbose"); opts.verbose = true; }
    else if (arg == "--help" || arg == "-h") help();
    else usage(("unknown option " + arg).c_str());
  }
  if (opts.spec.flow != flow::FlowKind::Plain &&
      std::any_of(opts.property_engines.begin(), opts.property_engines.end(),
                  [](const auto& e) { return e.has_value(); })) {
    usage("per-property engine overrides require --flow plain");
  }
  return opts;
}

void write_output(const std::string& path, const std::string& content) {
  util::write_file(path, content);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

/// Re-ingest a lemma file: every line goes through the full LemmaManager
/// gate (parse -> screen -> prove -> admit), so only re-proven lemmas come
/// back. Returns the admitted expressions; prints a one-line summary.
std::vector<ir::NodeRef> ingest_lemma_file(flow::VerificationTask& task,
                                           const std::string& path, std::size_t max_k) {
  const std::vector<std::string> texts = flow::read_lemma_file(path);
  flow::LemmaManager manager(task, {{.max_steps = max_k}, {}});
  manager.process(texts);
  std::printf("lemma file %s: %zu line(s), %zu re-proven and assumed\n", path.c_str(),
              texts.size(), manager.lemma_exprs().size());
  return manager.lemma_exprs();
}

void emit_lemmas(const std::string& path, const std::string& design,
                 const std::vector<std::string>& lemma_svas) {
  flow::write_lemma_file(path, design, lemma_svas);
  std::printf("wrote %s (%zu lemma(s))\n", path.c_str(), lemma_svas.size());
}

/// One-line engine summary sourced from the metrics registry — the same
/// numbers --metrics-out exports, not a second hand-copied set.
std::string telemetry_summary_line() {
  auto& reg = util::metrics();
  const std::uint64_t solves = reg.counter("sat.solves").value();
  const std::uint64_t solve_ms = reg.counter("sat.solve_ns").value() / 1000000;
  const std::uint64_t blocking_ms = reg.counter("pdr.blocking_ns").value() / 1000000;
  const std::uint64_t propagate_ms = reg.counter("pdr.propagate_ns").value() / 1000000;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "telemetry: sat %llu solves / %llu ms, pdr blocking %llu ms propagate %llu ms",
                static_cast<unsigned long long>(solves),
                static_cast<unsigned long long>(solve_ms),
                static_cast<unsigned long long>(blocking_ms),
                static_cast<unsigned long long>(propagate_ms));
  return buf;
}

void print_result(const std::string& label, const mc::EngineResult& result) {
  std::printf("%s: %s\n", label.c_str(), result.summary().c_str());
  if (util::telemetry_on()) {
    result.stats.publish_metrics("engine.");
    std::printf("%s\n", telemetry_summary_line().c_str());
  }
}

int run_plain(flow::VerificationTask& task, const CliOptions& opts,
              std::vector<ir::NodeRef> lemmas) {
  mc::EngineOptions base;
  base.max_steps = opts.spec.max_steps;
  base.drat_path = opts.drat_out;
  base.lemmas = std::move(lemmas);

  // Proof groups: without per-property engine overrides one joint proof of
  // every target, labelled "plain <engine>"; with them, one proof per
  // target, labelled "<name> [<engine>]".
  struct ProofGroup {
    std::string property;  ///< "" for the joint proof
    mc::EngineKind kind;
    std::vector<ir::NodeRef> targets;
  };
  std::vector<ProofGroup> groups;
  const bool has_overrides =
      std::any_of(opts.property_engines.begin(), opts.property_engines.end(),
                  [](const auto& e) { return e.has_value(); });
  if (!has_overrides) {
    groups.push_back({"", opts.spec.engine, task.target_exprs()});
  } else {
    for (std::size_t t = 0; t < task.target_indices.size(); ++t) {
      const auto& prop = task.ts.property(task.target_indices[t]);
      const bool overridden =
          t < opts.property_engines.size() && opts.property_engines[t].has_value();
      groups.push_back({prop.name, overridden ? *opts.property_engines[t] : opts.spec.engine,
                        {prop.expr}});
    }
  }

  bool all_proven = true;
  std::vector<std::string> exported;
  std::vector<mc::EngineResult> results;  // keeps the traces alive for the waveform
  results.reserve(groups.size());
  const sim::Trace* wave_trace = nullptr;
  for (const ProofGroup& group : groups) {
    auto engine = mc::make_engine(group.kind, task.ts, base);
    const mc::EngineResult& result = results.emplace_back(engine->prove_all(group.targets));
    print_result(group.property.empty() ? "plain " + engine->name()
                                        : group.property + " [" + engine->name() + "]",
                 result);
    all_proven = all_proven && result.verdict == mc::Verdict::Proven;
    for (const ir::NodeRef clause : result.invariant) {
      exported.push_back(ir::to_string(clause));
    }
    if (wave_trace == nullptr) {
      if (result.cex.has_value()) wave_trace = &*result.cex;
      else if (result.step_cex.has_value()) wave_trace = &*result.step_cex;
    }
  }

  if (!exported.empty()) {
    std::printf("inductive invariant (%zu clauses, reusable as proven lemmas):\n",
                exported.size());
    for (const std::string& clause : exported) {
      std::printf("  assert property (%s);\n", clause.c_str());
    }
  }
  if (!opts.emit_lemmas_path.empty()) {
    emit_lemmas(opts.emit_lemmas_path, task.name, exported);
  }
  if (wave_trace != nullptr) {
    sim::WaveformOptions wave;
    wave.failure_frame = wave_trace->size() - 1;
    std::printf("%s\n", sim::render_waveform(*wave_trace,
                                             sim::default_signals(task.ts), wave)
                            .c_str());
    if (!opts.vcd_path.empty()) {
      write_output(opts.vcd_path, sim::render_vcd(*wave_trace,
                                                  sim::default_signals(task.ts),
                                                  task.name));
    }
  }
  return all_proven ? 0 : 1;
}

int run_task(flow::VerificationTask& task, const CliOptions& opts) {
  if (!opts.dump_ts_path.empty()) {
    write_output(opts.dump_ts_path, ir::serialize(task.ts));
  }
  if (!opts.dump_aiger_path.empty()) {
    frontend::write_aiger_file(opts.dump_aiger_path, task.ts);
    std::printf("wrote %s\n", opts.dump_aiger_path.c_str());
  }
  std::vector<ir::NodeRef> lemmas;
  if (!opts.use_lemmas_path.empty()) {
    lemmas = ingest_lemma_file(task, opts.use_lemmas_path, opts.spec.max_steps);
  }
  if (opts.spec.flow == flow::FlowKind::Plain) return run_plain(task, opts, std::move(lemmas));

  const flow::FlowReport report = flow::run_flow(opts.spec, task, std::move(lemmas), opts.drat_out);
  std::printf("%s\n", report.to_string().c_str());
  if (!opts.emit_lemmas_path.empty()) {
    emit_lemmas(opts.emit_lemmas_path, task.name, report.admitted_lemmas);
  }
  return report.all_targets_proven() ? 0 : 1;
}

/// True when the path names a standard-format design (AIGER / BTOR2) rather
/// than HDL source.
bool is_frontend_path(const std::string& path) {
  const std::string ext = util::lower_extension(path);
  return ext == "aag" || ext == "aig" || ext == "btor" || ext == "btor2";
}

/// The job's source: a zoo design or a standard-format file, whose
/// --property flags select targets by name (in flag order, so per-property
/// engine overrides stay aligned), or HDL whose --property flags are
/// compiled as SVA targets.
flow::JobSource job_source(const CliOptions& opts) {
  if (opts.command == "demo") return flow::JobSource::design(opts.design, opts.properties);
  if (opts.rtl_path.empty()) usage("prove requires --rtl");
  if (is_frontend_path(opts.rtl_path)) {
    return flow::JobSource::file(opts.rtl_path, opts.properties);
  }
  if (opts.properties.empty()) usage("prove requires at least one --property");
  std::vector<flow::TargetSpec> targets;
  for (std::size_t i = 0; i < opts.properties.size(); ++i) {
    targets.push_back({"target_" + std::to_string(i + 1), opts.properties[i]});
  }
  return flow::JobSource::rtl_text(opts.rtl_path, util::read_file(opts.rtl_path),
                                   std::move(targets));
}

/// `genfv_cli sat <file.cnf>` — solve a DIMACS CNF directly. This is the
/// smallest possible harness around the SAT core: the CI DRAT check runs it
/// with --drat-out and validates the resulting certificate with
/// scripts/check_drat.py.
int cmd_sat(const CliOptions& opts) {
  const sat::Cnf cnf = sat::parse_dimacs(util::read_file(opts.rtl_path));
  sat::Solver solver;
  if (!opts.drat_out.empty() && !solver.start_proof(opts.drat_out)) {
    std::fprintf(stderr, "error: cannot write a proof to '%s'\n", opts.drat_out.c_str());
    return 2;
  }
  sat::LBool verdict = sat::LBool::Undef;
  if (!sat::load_cnf(cnf, solver)) {
    verdict = sat::LBool::False;
  } else {
    // A standalone solve has no assumptions to protect, so run one
    // deterministic inprocessing session up front — the same passes an
    // incremental solver runs at solve() entry once its queries repeat.
    solver.simplify_now();
    verdict = solver.inconsistent() ? sat::LBool::False : solver.solve();
  }
  switch (verdict) {
    case sat::LBool::True: std::printf("s SATISFIABLE\n"); return 0;
    case sat::LBool::False: std::printf("s UNSATISFIABLE\n"); return 0;
    case sat::LBool::Undef: break;
  }
  std::printf("s UNKNOWN\n");
  return 1;
}

int cmd_designs() {
  std::printf("%-18s %-10s %-12s %s\n", "name", "category", "key insight", "description");
  for (const auto& d : designs::all_designs()) {
    std::printf("%-18s %-10s %-12s %s\n", d.name.c_str(), d.category.c_str(),
                d.key_insight.empty() ? "-" : d.key_insight.c_str(),
                d.description.c_str());
  }
  return 0;
}

int cmd_models() {
  for (const auto& name : genai::known_models()) {
    const auto& p = genai::profile_by_name(name);
    std::printf("%-16s vendor=%-7s insight=%d/7 hallucination=%.0f%% syntax-err=%.0f%% "
                "self-check=%s\n",
                p.name.c_str(), p.vendor.c_str(), p.insight,
                p.hallucination_rate * 100, p.syntax_error_rate * 100,
                p.self_check ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = [&] {
    try {
      return parse_args(argc, argv);
    } catch (const UsageError& e) {
      usage(e.what());
    }
  }();
  if (opts.verbose) util::set_log_level(util::LogLevel::Info);

  // Telemetry is process-global: one switch arms every layer's
  // instrumentation at once (docs/observability.md).
  if (!opts.trace_out_path.empty()) {
    util::set_telemetry_level(util::TelemetryLevel::Tracing);
  } else if (!opts.metrics_out_path.empty() || opts.progress_seconds > 0.0) {
    util::set_telemetry_level(util::TelemetryLevel::Metrics);
  }
  if (util::tracing_on()) util::set_trace_thread_name("main");
  if (opts.progress_seconds > 0.0 &&
      static_cast<int>(util::log_level()) < static_cast<int>(util::LogLevel::Info)) {
    util::set_log_level(util::LogLevel::Info);  // heartbeat logs at Info
  }

  std::optional<util::Heartbeat> heartbeat;
  if (opts.progress_seconds > 0.0) {
    heartbeat.emplace(opts.progress_seconds, util::ProgressStatus{});
  }

  int rc = 1;
  try {
    if (opts.command == "designs") rc = cmd_designs();
    else if (opts.command == "models") rc = cmd_models();
    else if (opts.command == "sat") rc = cmd_sat(opts);
    else if (opts.command == "demo" || opts.command == "prove") {
      opts.spec.source = job_source(opts);
      auto task = flow::build_task(opts.spec.source);
      if (task.target_indices.empty()) {
        throw UsageError("'" + opts.rtl_path + "' has no properties to prove");
      }
      rc = run_task(task, opts);
    }
    else usage(("unknown command '" + opts.command + "'").c_str());
  } catch (const genfv::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  // Flush observability artefacts even when the run failed — a trace of the
  // failing run is exactly what one wants to look at.
  heartbeat.reset();
  if (!opts.trace_out_path.empty() && util::write_trace_json(opts.trace_out_path)) {
    std::printf("wrote trace %s (%zu events)\n", opts.trace_out_path.c_str(),
                util::trace_snapshot().size());
  }
  if (!opts.metrics_out_path.empty() && util::write_metrics_json(opts.metrics_out_path)) {
    std::printf("wrote metrics %s\n", opts.metrics_out_path.c_str());
  }
  return rc;
}
