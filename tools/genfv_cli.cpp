/// genfv_cli — command-line front door to the library.
///
///   genfv_cli prove --rtl design.sv --property "<sva>" [options]
///       Verify RTL from a file: elaborate, compile the target properties,
///       and run the selected flow.
///   genfv_cli prove --rtl design.aag [options]
///       Verify a standard-format design: .aag/.aig go through the AIGER
///       frontend, .btor/.btor2 through the BTOR2 frontend. Targets are the
///       file's embedded properties; --property then *selects* properties by
///       name ("bad_0", with an optional engine prefix "pdr:bad_0") instead
///       of compiling SVA.
///   genfv_cli <file.aag|file.aig|file.btor|file.btor2|file.sv> [options]
///       Shorthand for `prove --rtl <file>`.
///   genfv_cli demo <design> [options]
///       Run a built-in zoo design through the selected flow.
///   genfv_cli sat <file.cnf> [options]
///       Solve a DIMACS CNF with the SAT solver directly (no model
///       checking). Prints "s SATISFIABLE" / "s UNSATISFIABLE"; honours
///       --drat-out, which makes it the harness the DRAT-certificate CI
///       check drives (scripts/check_drat.py).
///   genfv_cli designs
///       List the built-in design zoo.
///   genfv_cli models
///       List the simulated model profiles.
///
/// Options (--opt value and --opt=value are both accepted):
///   --flow cex|helper|direct|plain   (default: cex — the paper's Fig. 2 loop)
///   --engine bmc|kind|pdr|portfolio  target-proof engine (default: kind)
///   --drat-out <path>                log DRAT proofs: each solver writes
///                                    <path>[-p..].cnf/.drat; check
///                                    with scripts/check_drat.py (docs/sat.md)
///   --property "<sva>"               may repeat; an `<engine>:` prefix (e.g.
///                                    "pdr:count <= 8") overrides the engine
///                                    for that property (plain flow only)
///   --emit-lemmas <file>             export proven lemmas / the winning
///                                    engine's inductive invariant as a lemma
///                                    file (docs/cli.md) for later re-use
///   --use-lemmas <file>              re-ingest a lemma file: every line is
///                                    re-proven via LemmaManager before it is
///                                    assumed (sound even for stale files)
///   --model <name>                   (default: gpt-4o)
///   --seed <n>                       (default: 42)
///   --max-k <n>                      step bound: BMC depth / induction k /
///                                    PDR frames (default: 8)
///   --no-screen                      disable the simulation review screen
///   --dump-aiger <file.aag|file.aig> bit-blast the design and write it as an
///                                    AIGER 1.9 file — ASCII, or binary when
///                                    the extension is .aig (corpus
///                                    generation; docs/frontends.md)
///   --dump-ts <file>                 serialize the elaborated system
///   --vcd <file>                     dump the last step-CEX (plain flow) as VCD
///   --trace-out <file.json>          record trace spans across the whole run
///                                    and write Chrome trace-format JSON
///                                    (open in Perfetto; docs/observability.md)
///   --metrics-out <file.json>        snapshot the metrics registry (counters,
///                                    gauges, histograms) to JSON at exit
///   --progress <seconds>             live one-line status heartbeat at Info
///                                    level every <seconds> (implies metrics)
///   --verbose                        info-level logging

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "frontend/aiger.hpp"
#include "flow/direct_miner_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "flow/lemma_io.hpp"
#include "genai/simulated_llm.hpp"
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
  std::string flow = "cex";
  mc::EngineKind engine = mc::EngineKind::KInduction;
  std::string drat_out;
  std::string model = "gpt-4o";
  std::uint64_t seed = 42;
  std::size_t max_k = 8;
  bool sim_screen = true;
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
    else if (arg == "--flow") opts.flow = need_value("--flow");
    else if (arg == "--engine") {
      const std::string name = need_value("--engine");
      const auto kind = mc::engine_kind_from_string(name);
      if (!kind.has_value()) usage(("unknown engine '" + name + "'").c_str());
      opts.engine = *kind;
    }
    else if (arg == "--drat-out") opts.drat_out = need_value("--drat-out");
    else if (arg == "--model") opts.model = need_value("--model");
    else if (arg == "--seed") {
      opts.seed = util::parse_number<std::uint64_t>("--seed", need_value("--seed"));
    }
    else if (arg == "--max-k") {
      opts.max_k = util::parse_number<std::size_t>("--max-k", need_value("--max-k"));
    }
    else if (arg == "--no-screen") { no_value("--no-screen"); opts.sim_screen = false; }
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
  return opts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
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

int run_plain(flow::VerificationTask& task, const CliOptions& opts) {
  mc::EngineOptions base;
  base.max_steps = opts.max_k;
  base.drat_path = opts.drat_out;
  if (!opts.use_lemmas_path.empty()) {
    base.lemmas = ingest_lemma_file(task, opts.use_lemmas_path, opts.max_k);
  }

  const bool has_overrides = [&] {
    for (const auto& e : opts.property_engines) {
      if (e.has_value()) return true;
    }
    return false;
  }();

  bool all_proven = true;
  std::vector<std::string> exported;
  const sim::Trace* wave_trace = nullptr;
  mc::EngineResult joint;  // keeps the trace alive for waveform rendering
  std::vector<mc::EngineResult> per_target;

  if (!has_overrides) {
    auto engine = mc::make_engine(opts.engine, task.ts, base);
    joint = engine->prove_all(task.target_exprs());
    print_result("plain " + engine->name(), joint);
    all_proven = joint.verdict == mc::Verdict::Proven;
    for (const ir::NodeRef clause : joint.invariant) {
      exported.push_back(ir::to_string(clause));
    }
    if (joint.cex.has_value()) wave_trace = &*joint.cex;
    else if (joint.step_cex.has_value()) wave_trace = &*joint.step_cex;
  } else {
    // Per-property engine overrides: prove each target on its own engine.
    per_target.reserve(task.target_indices.size());
    for (std::size_t t = 0; t < task.target_indices.size(); ++t) {
      const auto& prop = task.ts.property(task.target_indices[t]);
      const mc::EngineKind kind = t < opts.property_engines.size() &&
                                          opts.property_engines[t].has_value()
                                      ? *opts.property_engines[t]
                                      : opts.engine;
      auto engine = mc::make_engine(kind, task.ts, base);
      per_target.push_back(engine->prove(prop.expr));
      const mc::EngineResult& result = per_target.back();
      print_result(prop.name + " [" + engine->name() + "]", result);
      all_proven = all_proven && result.verdict == mc::Verdict::Proven;
      for (const ir::NodeRef clause : result.invariant) {
        exported.push_back(ir::to_string(clause));
      }
      if (wave_trace == nullptr) {
        if (result.cex.has_value()) wave_trace = &*result.cex;
        else if (result.step_cex.has_value()) wave_trace = &*result.step_cex;
      }
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
  if (opts.flow == "plain") return run_plain(task, opts);
  for (const auto& e : opts.property_engines) {
    if (e.has_value()) usage("per-property engine overrides require --flow plain");
  }

  flow::FlowOptions options;
  options.engine.max_k = opts.max_k;
  options.review.sim_screen = opts.sim_screen;
  options.target_engine = opts.engine;
  options.engine.drat_path = opts.drat_out;
  if (!opts.use_lemmas_path.empty()) {
    options.engine.lemmas = ingest_lemma_file(task, opts.use_lemmas_path, opts.max_k);
  }

  flow::FlowReport report;
  if (opts.flow == "direct") {
    report = flow::DirectMinerFlow(options, opts.seed).run(task);
  } else {
    genai::SimulatedLlm llm(genai::profile_by_name(opts.model), opts.seed);
    if (opts.flow == "helper") report = flow::HelperGenFlow(llm, options).run(task);
    else if (opts.flow == "cex") report = flow::CexRepairFlow(llm, options).run(task);
    else usage(("unknown flow '" + opts.flow + "'").c_str());
  }
  report.seed = opts.seed;
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

/// On frontend files --property selects embedded properties by name (order
/// follows the flags, so per-property engine overrides stay aligned).
void select_targets(flow::VerificationTask& task, const std::vector<std::string>& names) {
  std::vector<std::size_t> selected;
  for (const std::string& name : names) {
    bool found = false;
    for (const std::size_t idx : task.target_indices) {
      if (task.ts.property(idx).name == name) {
        selected.push_back(idx);
        found = true;
        break;
      }
    }
    if (!found) {
      std::string known;
      for (const std::size_t idx : task.target_indices) {
        if (!known.empty()) known += ", ";
        known += task.ts.property(idx).name;
      }
      throw UsageError("no property named '" + name + "' in this design (has: " +
                       (known.empty() ? "none" : known) + ")");
    }
  }
  task.target_indices = std::move(selected);
}

/// `genfv_cli sat <file.cnf>` — solve a DIMACS CNF directly. This is the
/// smallest possible harness around the SAT core: the CI DRAT check runs it
/// with --drat-out and validates the resulting certificate with
/// scripts/check_drat.py.
int cmd_sat(const CliOptions& opts) {
  const sat::Cnf cnf = sat::parse_dimacs(read_file(opts.rtl_path));
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
  const CliOptions opts = [&] {
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
    else if (opts.command == "demo") {
      auto task = designs::make_task(opts.design);
      rc = run_task(task, opts);
    }
    else if (opts.command == "prove") {
      if (opts.rtl_path.empty()) usage("prove requires --rtl");
      if (is_frontend_path(opts.rtl_path)) {
        // Standard-format designs carry their own properties; --property
        // selects among them by name instead of compiling SVA.
        auto task = flow::VerificationTask::from_file(opts.rtl_path);
        if (!opts.properties.empty()) select_targets(task, opts.properties);
        if (task.target_indices.empty()) {
          throw UsageError("'" + opts.rtl_path + "' has no properties to prove");
        }
        rc = run_task(task, opts);
      } else {
        if (opts.properties.empty()) usage("prove requires at least one --property");
        std::vector<flow::TargetSpec> targets;
        for (std::size_t i = 0; i < opts.properties.size(); ++i) {
          targets.push_back({"target_" + std::to_string(i + 1), opts.properties[i]});
        }
        auto task = flow::VerificationTask::from_rtl(
            opts.rtl_path, /*spec=*/"", read_file(opts.rtl_path), targets);
        rc = run_task(task, opts);
      }
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
