/// Engine shootout — the case for an engine-selection layer: BMC,
/// k-induction and IC3/PDR attack the same zoo designs at the same step
/// budget through the uniform `mc::Engine` interface. BMC never proves,
/// k-induction needs the design to be inductive (or externally supplied
/// lemmas), and PDR discovers clause strengthenings on its own. The
/// portfolio row runs a k-induction probe at k = 1, then PDR.
///
/// `--json <path>` additionally writes machine-readable records (design,
/// engine, verdict, wall-ms, solver stats, and per-phase wall
/// times read as metrics-registry deltas around each cell) for
/// BENCH_*.json trajectory tracking; scripts/check_shootout.py consumes
/// them in CI. `--trace-out <path>` records every cell's spans and writes
/// one Perfetto-loadable Chrome trace for the whole shootout; without
/// either flag telemetry stays off, so the wall-time columns measure the
/// disabled-overhead configuration.
///
/// `--dir <path>` additionally sweeps every standard-format design file
/// (.aag / .aig / .btor / .btor2) found in <path> through the same engine
/// matrix — the frontends turn a directory of HWMCC-style files into
/// shootout rows next to the built-in zoo (tests/corpus/ in CI).

#include <algorithm>
#include <filesystem>

#include "bench_common.hpp"
#include "flow/job.hpp"
#include "mc/engine.hpp"
#include "serve/proof_cache.hpp"
#include "util/telemetry.hpp"

namespace genfv {
namespace {

constexpr std::size_t kMaxSteps = 12;

/// A shootout row source: a zoo design (empty path) or a standard-format
/// file loaded through the frontends. `max_steps` is the per-design step
/// budget — kMaxSteps unless the design needs a smaller bound to keep the
/// matrix affordable (deep unrollings of wide datapaths explode long before
/// the budget adds information).
struct DesignSource {
  std::string name;
  std::string path;
  std::size_t max_steps = kMaxSteps;
};

/// Every .aag/.aig/.btor/.btor2 file in `dir`, sorted by name so row order
/// (and the committed BENCH_*.json) is stable across filesystems.
std::vector<DesignSource> scan_corpus_dir(const std::string& dir) {
  std::vector<DesignSource> sources;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".aag" && ext != ".aig" && ext != ".btor" && ext != ".btor2") continue;
    sources.push_back({entry.path().stem().string(), entry.path().string()});
  }
  std::sort(sources.begin(), sources.end(),
            [](const DesignSource& a, const DesignSource& b) { return a.name < b.name; });
  return sources;
}

void run_experiment(bench::JsonRecords* json, const std::string& corpus_dir) {
  bench::print_header(
      "E8: engine shootout over the mc::Engine interface",
      "Peled et al. IJCAI'26 motivation, Kumar-Gadde §II-A background",
      "BMC / k-induction / IC3-PDR on identical designs and step budgets; "
      "PDR proves designs the others cannot at this bound, and the portfolio "
      "runs a k-induction probe at k = 1, then PDR.");

  const bool phases = util::telemetry_on();
  std::vector<std::string> columns = {"design",    "engine",    "verdict", "depth",
                                      "SAT calls", "conflicts", "time"};
  // With telemetry on, break the wall time down by engine phase straight
  // from the metrics registry (blocking / propagate / SAT-solve time).
  if (phases) columns.push_back("b/p/s ms");
  util::Table table(columns);

  const std::vector<mc::EngineKind> contenders = {
      mc::EngineKind::Bmc, mc::EngineKind::KInduction, mc::EngineKind::Pdr,
      mc::EngineKind::Portfolio};

  // fifo_ctrl is the blocking-heavy row: thousands of obligations at this
  // bound. dual_accumulator is the SAT-heavy row — 16-bit adder chains make
  // every query a real CDCL fight. Its budget is 6: PDR closes the proof
  // within it, while BMC/k-induction unrollings past 6 frames of the wide
  // datapath burn minutes without changing any verdict.
  std::vector<DesignSource> sources = {
      {"sync_counters", ""}, {"sequencer", ""},    {"token_ring", ""},
      {"updown_pair", ""},   {"lfsr16", ""},       {"gray_counter", ""},
      {"fifo_ctrl", ""},     {"dual_accumulator", "", 6}};
  if (!corpus_dir.empty()) {
    // Corpus rows ride after the zoo rows, so one JSON holds both.
    for (auto& src : scan_corpus_dir(corpus_dir)) sources.push_back(std::move(src));
  }
  for (const DesignSource& source : sources) {
    const std::string& name = source.name;
    for (const mc::EngineKind kind : contenders) {
      auto task = flow::build_task(source.path.empty() ? flow::JobSource::design(name)
                                                       : flow::JobSource::file(source.path));
      mc::EngineOptions options;
      options.max_steps = source.max_steps;
      auto engine = mc::make_engine(kind, task.ts, options);
      const auto before = phases ? util::metrics().snapshot_values()
                                 : std::map<std::string, std::int64_t>{};
      const mc::EngineResult r = engine->prove_all(task.target_exprs());
      const auto after = phases ? util::metrics().snapshot_values()
                                : std::map<std::string, std::int64_t>{};
      // Registry delta across this cell, in milliseconds. The counters are
      // process-global and every cell runs sequentially, so the delta is
      // exactly this (design, engine) pair's share.
      const auto delta_ms = [&](const std::string& key) -> double {
        const auto b = before.find(key);
        const auto a = after.find(key);
        const std::int64_t bv = b == before.end() ? 0 : b->second;
        const std::int64_t av = a == after.end() ? 0 : a->second;
        return static_cast<double>(av - bv) / 1e6;
      };
      const std::string label = mc::to_string(kind);
      std::string shown = label;
      if (!r.winner.empty()) shown += " (" + r.winner + ")";
      std::vector<std::string> row = {name, shown, mc::to_string(r.verdict),
                                      std::to_string(r.depth),
                                      std::to_string(r.stats.sat_calls),
                                      std::to_string(r.stats.conflicts),
                                      util::format_duration(r.stats.seconds)};
      if (phases) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%.0f/%.0f/%.0f",
                      delta_ms("pdr.blocking_ns"), delta_ms("pdr.propagate_ns"),
                      delta_ms("sat.solve_ns"));
        row.push_back(cell);
      }
      table.add_row(row);
      if (json != nullptr) {
        json->record()
            .field("design", name)
            .field("engine", label)
            .field("kind", label)
            .field("verdict", mc::to_string(r.verdict))
            .field("depth", static_cast<std::uint64_t>(r.depth))
            .field("wall_ms", r.stats.seconds * 1e3)
            .counters(r.stats);
        if (phases) {
          json->field("blocking_ms", delta_ms("pdr.blocking_ns"))
              .field("propagate_ms", delta_ms("pdr.propagate_ns"))
              .field("may_proof_ms", delta_ms("pdr.may_proof_ns"))
              .field("push_infinity_ms", delta_ms("pdr.push_infinity_ns"))
              .field("sat_solve_ms", delta_ms("sat.solve_ns"));
        }
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Same bound, same designs: PDR closes proofs k-induction leaves "
              "open because it mines its own frame strengthenings; the "
              "portfolio concludes wherever its k = 1 probe or PDR does.\n\n");
}

/// The proof-cache experiment behind genfv_serve (docs/serve.md): for every
/// zoo design PDR proves at its budget, compare a cold run against (a) an
/// exact cache hit replayed through one-step recertification and (b) a
/// near-miss warm start on an edited copy of the design, where the cached
/// clauses enter PDR as unproven candidates. Rows carry
/// kind="pdr-cache"; scripts/check_shootout.py gates the warm rows directly
/// (verdict parity everywhere, >=5x fewer conflicts on the recertified hits
/// for at least two designs, candidates seeded on every warm-edit row).
void run_cache_experiment(bench::JsonRecords* json) {
  bench::print_header(
      "E9: structural proof cache — cold runs vs warm re-verification",
      "Kumar-Gadde §V incremental flows, docs/serve.md",
      "An exact struct_hash hit re-certifies the stored invariant with one "
      "induction step instead of re-discovering it; a near miss seeds PDR "
      "with the surviving clauses as candidates to graduate.");

  util::Table table({"design", "engine", "verdict", "depth", "SAT calls",
                     "conflicts", "seeded", "time"});

  // Only designs PDR proves at its budget can populate the cache
  // (ProofCache::store refuses anything but a Proven invariant), so the
  // budgets here differ from the main matrix: gray_counter, lfsr16 and
  // fifo_ctrl need deeper frame limits than kMaxSteps before PDR closes
  // their proofs — which also makes them the rows where recertification
  // pays off the hardest (fifo_ctrl: tens of thousands of cold conflicts
  // against one induction step). dual_accumulator keeps its reduced budget.
  const std::vector<DesignSource> sources = {
      {"sequencer", ""},        {"token_ring", ""}, {"updown_pair", ""},
      {"gray_counter", "", 16}, {"lfsr16", "", 16}, {"dual_accumulator", "", 6},
      {"fifo_ctrl", "", 24}};
  serve::ProofCache cache({/*dir=*/"", /*near_threshold=*/0.4});

  const auto emit = [&](const std::string& design, const char* label,
                        const mc::EngineResult& r, const std::string& outcome,
                        double similarity) {
    table.add_row({design, label, mc::to_string(r.verdict),
                   std::to_string(r.depth), std::to_string(r.stats.sat_calls),
                   std::to_string(r.stats.conflicts),
                   std::to_string(r.stats.candidates_seeded),
                   util::format_duration(r.stats.seconds)});
    if (json != nullptr) {
      json->record()
          .field("design", design)
          .field("engine", std::string(label))
          .field("kind", std::string("pdr-cache"))
          .field("cache", outcome)
          .field("similarity", similarity)
          .field("verdict", mc::to_string(r.verdict))
          .field("depth", static_cast<std::uint64_t>(r.depth))
          .field("wall_ms", r.stats.seconds * 1e3)
          .counters(r.stats);
    }
  };

  for (const DesignSource& source : sources) {
    mc::EngineOptions options;
    options.max_steps = source.max_steps;

    // Cold: discover the proof from scratch and store its invariant.
    auto cold = designs::make_task(source.name);
    auto engine = mc::make_engine(mc::EngineKind::Pdr, cold.ts, options);
    const mc::EngineResult cold_result = engine->prove_all(cold.target_exprs());
    const bool stored =
        cache.store(source.name, cold.ts, cold.target_exprs(), cold_result);
    emit(source.name, "pdr-cache cold+store", cold_result,
         stored ? "stored" : "store-failed", 1.0);

    // Warm, unmodified: a fresh elaboration of the same design must be an
    // exact hit, and the stored invariant must recertify in one induction
    // step — that conflict gap is the cache's reason to exist.
    auto warm = designs::make_task(source.name);
    const auto hit = cache.lookup(warm.ts, warm.target_exprs());
    if (hit.outcome == serve::CacheOutcome::Exact) {
      const mc::EngineResult recert =
          serve::recertify(warm.ts, warm.target_exprs(), *hit.entry, options);
      emit(source.name, "pdr-cache warm", recert, serve::to_string(hit.outcome),
           hit.similarity);
    } else {
      emit(source.name, "pdr-cache warm", cold_result, "unexpected-" + serve::to_string(hit.outcome),
           hit.similarity);
    }

    // Warm, edited: graft an extra register onto a fresh elaboration so the
    // system hash changes but every original state signature still matches —
    // the near-miss shape a source edit produces. The surviving clauses ride
    // into PDR as candidates that must graduate (docs/lemmas.md).
    auto edited = designs::make_task(source.name);
    ir::TransitionSystem& ts = edited.ts;
    const ir::NodeRef probe = ts.add_state("edit$probe", 4);
    ts.set_init(probe, ts.nm().mk_const(0, 4));
    ts.set_next(probe, probe);
    const auto near = cache.lookup(ts, edited.target_exprs());
    mc::EngineOptions warm_options = options;
    if (near.outcome == serve::CacheOutcome::Near) {
      warm_options.pdr_candidate_lemmas = serve::surviving_clauses(ts, *near.entry);
    }
    auto warm_engine = mc::make_engine(mc::EngineKind::Pdr, ts, warm_options);
    const mc::EngineResult edit_result = warm_engine->prove_all(edited.target_exprs());
    emit(source.name, "pdr-cache warm-edit", edit_result, serve::to_string(near.outcome),
         near.similarity);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("The warm rows answer from the cache: an exact hit trades the "
              "whole IC3 frame trajectory for a single induction check over "
              "the stored clauses, and the edited-design rows show those same "
              "clauses surviving a source edit as seeded candidates.\n\n");
}

void BM_EngineProve(benchmark::State& state) {
  const auto kind = static_cast<mc::EngineKind>(state.range(0));
  for (auto _ : state) {
    auto task = designs::make_task("sequencer");
    mc::EngineOptions options;
    options.max_steps = kMaxSteps;
    auto engine = mc::make_engine(kind, task.ts, options);
    benchmark::DoNotOptimize(engine->prove_all(task.target_exprs()));
  }
}
BENCHMARK(BM_EngineProve)
    ->Arg(static_cast<int>(mc::EngineKind::Bmc))
    ->Arg(static_cast<int>(mc::EngineKind::KInduction))
    ->Arg(static_cast<int>(mc::EngineKind::Pdr))
    ->Arg(static_cast<int>(mc::EngineKind::Portfolio));

}  // namespace
}  // namespace genfv

int main(int argc, char** argv) {
  const std::string json_path = genfv::bench::take_flag_value(&argc, argv, "--json");
  const std::string trace_path = genfv::bench::take_flag_value(&argc, argv, "--trace-out");
  const std::string corpus_dir = genfv::bench::take_flag_value(&argc, argv, "--dir");
  // --trace-out wants spans; --json wants the registry for the per-phase
  // columns. Neither flag leaves telemetry off, which keeps the default
  // shootout measuring the disabled-overhead configuration.
  if (!trace_path.empty()) {
    genfv::util::set_telemetry_level(genfv::util::TelemetryLevel::Tracing);
    genfv::util::set_trace_thread_name("shootout");
  } else if (!json_path.empty()) {
    genfv::util::set_telemetry_level(genfv::util::TelemetryLevel::Metrics);
  }
  genfv::bench::JsonRecords json;
  genfv::run_experiment(json_path.empty() ? nullptr : &json, corpus_dir);
  genfv::run_cache_experiment(json_path.empty() ? nullptr : &json);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  if (!trace_path.empty()) {
    if (!genfv::util::write_trace_json(trace_path)) return 1;
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  return genfv::bench::run_benchmarks(argc, argv);
}
