#pragma once

/// \file harness.hpp
/// Shared pieces of the benchmark: the workload interface, the
/// per-pass outcome record, the benchmark-side probe that times the benchmark's
/// own calls into each module's public functions, and the output checks.
///
/// A workload runs in *passes*. One pass is the workload's whole seeded job
/// set (every design x profile x flow, every request of the serving mix), so
/// pass totals are comparable between runs of the same seed and the measured
/// phase never stops in the middle of a mix.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "mc/result.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

/// Host monotonic clock in nanoseconds, on the telemetry epoch so benchmark
/// spans line up with the spans the library records.
inline std::uint64_t now_ns() { return genfv::util::telemetry_now_ns(); }

/// What one pass (or several, merged) produced.
struct PassStats {
  std::vector<double> latency_ms;  ///< host wall time per job
  std::size_t jobs = 0;
  std::size_t errors = 0;           ///< errored, wrong verdict, or failed check
  std::size_t targets = 0;          ///< target properties attempted
  std::size_t proven = 0;           ///< of which proven
  std::uint64_t llm_tokens = 0;     ///< prompt + completion tokens
  std::vector<std::string> failures;  ///< first few check failures, for the log

  void fail(const std::string& what);
  void merge(const PassStats& other);
};

/// Benchmark-side per-layer counts, tokens and serve latency parts. Every
/// field is filled from outside the library, by reading FlowReports, LLM
/// completions and serve responses, never by instrumenting src/.
struct Probe {
  std::map<std::string, double> sums;  ///< metric name -> accumulated value

  void add(const std::string& name, double value) { sums[name] += value; }
  double get(const std::string& name) const {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
};

/// RAII span around one benchmark call into a library layer. While tracing,
/// it records a "bench" span named `name` (a string literal); the ledger
/// nests library spans under it and totals it as "bench/<name>".
class Section {
 public:
  explicit Section(const char* name) : name_(name), start_(now_ns()) {}
  ~Section() {
    if (genfv::util::tracing_on()) {
      genfv::util::trace_record_span("bench", name_, start_, now_ns() - start_);
    }
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  const char* name_;
  std::uint64_t start_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from `seed` and warm up. Timed as setup_s; the
  /// benchmark calls it several times and keeps the last.
  virtual void setup(std::uint64_t seed) = 0;

  /// Bring the program back to the state setup left it in, so every pass
  /// starts alike. Runs before each pass, outside the measured totals.
  virtual void prepare_pass() {}

  /// Run the whole seeded job set once. `pass` varies per-pass seeds.
  virtual void run_pass(std::size_t pass, PassStats& out) = 0;

  /// Benchmark-side per-layer accumulators since the last reset.
  Probe& probe() { return probe_; }

  /// Telemetry thread ids of the benchmark's client threads. Non-empty once a
  /// serving workload has run: its jobs run on server worker threads and
  /// are timed by these clients, not on the benchmark's main thread.
  virtual std::set<int> client_threads() const { return {}; }

  /// Compare in-process jobs against the shipped genfv_cli binary. Returns
  /// the number of mismatches and appends one line per comparison to `log`.
  virtual std::size_t parity(const std::string& /*cli*/, std::vector<std::string>& /*log*/) {
    return 0;
  }

 protected:
  Probe probe_;
};

std::unique_ptr<Workload> make_cli_flows();
std::unique_ptr<Workload> make_serve_cold();
std::unique_ptr<Workload> make_serve_regression();

// --- output checks -----------------------------------------------------------

/// Ground truth per source: every zoo design and corpus file is safe except
/// the two deliberately buggy toggles, which must never be Proven.
bool expected_safe(const std::string& source);

/// Check one verdict against the ground truth; "" when it passes.
std::string check_verdict(const std::string& source, genfv::mc::Verdict verdict);

/// Replay a Falsified counterexample on the reference simulator: frame 0
/// satisfies the init expressions, every later frame is sim::step of the
/// previous one, the constraints hold, and some target is violated.
/// Returns "" when the trace is a genuine counterexample.
std::string replay_cex(const genfv::ir::TransitionSystem& ts, const genfv::sim::Trace& cex,
                       const std::vector<genfv::ir::NodeRef>& targets);

/// Per-job seeds: a stable mix of the workload seed, pass and job index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  genfv::util::Xoshiro256 rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

/// The zoo design names and the corpus files (paths relative to the repo
/// root), in stable order.
std::vector<std::string> zoo_designs();
std::vector<std::string> corpus_files();

}  // namespace perfbench
