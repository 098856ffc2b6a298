#pragma once

/// \file telemetry.hpp
/// Low-overhead, thread-safe tracing + metrics for the whole engine stack.
///
/// Three pieces:
///
///  1. **Trace spans/instants** — `GENFV_TRACE_SPAN("pdr", "block_one")`
///     records a begin/end pair into a per-thread lock-free buffer; the
///     buffers export as Chrome trace-format JSON (loadable in Perfetto or
///     chrome://tracing). The macro compiles to nothing when
///     `GENFV_DISABLE_TELEMETRY` is defined and costs a single relaxed
///     atomic load + branch when tracing is off at runtime.
///
///  2. **Metrics registry** — named counters, gauges, and histograms
///     (`sat.conflicts`, `pdr.obligations_queued`,
///     `serve.proof_cache_mutex_wait_ns`, ...) snapshotted to JSON. Hot paths
///     cache a `Counter&` once and pay one relaxed atomic add per update;
///     updates are gated on `telemetry_on()` so a disabled build pays only
///     the branch.
///
///  3. **Progress heartbeat** — a background thread that periodically emits
///     a one-line live status (frame depth, queue depth, conflicts/s) at
///     Info level for long runs.
///
/// Runtime levels: Off (default, hot paths pay one branch), Metrics
/// (counters/gauges/histograms and *_ns timers active), Tracing (Metrics
/// plus span recording). Timestamps share one monotonic epoch with
/// `util/log.cpp`, so log lines correlate with trace spans.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_safety.hpp"

namespace genfv::util {

// ---------------------------------------------------------------------------
// Runtime level
// ---------------------------------------------------------------------------

enum class TelemetryLevel : int { Off = 0, Metrics = 1, Tracing = 2 };

namespace telemetry_detail {
extern std::atomic<int> g_level;
}  // namespace telemetry_detail

void set_telemetry_level(TelemetryLevel level) noexcept;
TelemetryLevel telemetry_level() noexcept;

/// True when metrics (and possibly tracing) are active. This is the gate
/// hot paths check before touching counters or reading clocks.
inline bool telemetry_on() noexcept {
  return telemetry_detail::g_level.load(std::memory_order_relaxed) >=
         static_cast<int>(TelemetryLevel::Metrics);
}

/// True when span recording is active.
inline bool tracing_on() noexcept {
  return telemetry_detail::g_level.load(std::memory_order_relaxed) >=
         static_cast<int>(TelemetryLevel::Tracing);
}

/// Nanoseconds since the process-wide monotonic telemetry epoch. The same
/// epoch backs log-line timestamps, so logs and traces line up.
std::uint64_t telemetry_now_ns() noexcept;

/// Small dense id for the calling thread (0, 1, 2, ... in first-use order).
/// Assignment is allocation-free; used by both the logger prefix and trace
/// export so a log line's `T03` is the same lane as trace tid 3.
int telemetry_thread_id() noexcept;

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Name the calling thread for trace export (emitted as Chrome `M` thread
/// metadata). Safe to call at any time; last call wins.
void set_trace_thread_name(const std::string& name);

/// Record a completed span. `category`/`name` must be string literals (or
/// otherwise immortal): events store raw pointers to stay POD.
void trace_record_span(const char* category, const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) noexcept;

/// Record an instant event (vertical tick in Perfetto).
void trace_record_instant(const char* category, const char* name) noexcept;

/// RAII span. Captures the start time at construction when tracing is on;
/// the destructor records the event. When tracing is off both ends cost one
/// relaxed load + branch and touch no shared state.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) noexcept {
    if (tracing_on()) {
      category_ = category;
      name_ = name;
      start_ns_ = telemetry_now_ns();
    }
  }
  ~TraceSpan() {
    if (category_ != nullptr)
      trace_record_span(category_, name_, start_ns_, telemetry_now_ns() - start_ns_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// One recorded event, as seen by tests and the JSON exporter.
struct TraceEventView {
  const char* category;
  const char* name;
  int thread;               ///< telemetry_thread_id() of the recording thread
  std::uint64_t start_ns;   ///< offset from the telemetry epoch
  std::uint64_t dur_ns;     ///< 0 for instants
  bool instant;
};

/// Snapshot of every recorded event across all threads (stable order:
/// by thread id, then record order). Intended for tests and the exporter;
/// call while recording threads are quiescent for an exact picture.
std::vector<TraceEventView> trace_snapshot();

/// Number of threads that have registered a trace buffer. Stays 0 while
/// tracing has never been enabled — the disabled path allocates nothing.
std::size_t trace_registered_threads();

/// Number of events dropped because a per-thread buffer filled up.
std::uint64_t trace_dropped_events();

/// Export all recorded events as Chrome trace-format JSON
/// (`{"traceEvents": [...]}`), including thread-name metadata.
std::string trace_to_json();

/// Write `trace_to_json()` to `path`. Returns false (and logs a warning) on
/// I/O failure.
bool write_trace_json(const std::string& path);

/// Drop all recorded events and thread names (buffers stay registered).
/// Tests only; callers must be quiescent.
void trace_reset();

#if defined(GENFV_DISABLE_TELEMETRY)
#define GENFV_TRACE_SPAN(category, name)
#define GENFV_TRACE_INSTANT(category, name)
#else
#define GENFV_TELEMETRY_CONCAT2(a, b) a##b
#define GENFV_TELEMETRY_CONCAT(a, b) GENFV_TELEMETRY_CONCAT2(a, b)
#define GENFV_TRACE_SPAN(category, name) \
  ::genfv::util::TraceSpan GENFV_TELEMETRY_CONCAT(genfv_trace_span_, __LINE__)(category, name)
#define GENFV_TRACE_INSTANT(category, name) \
  do {                                      \
    if (::genfv::util::tracing_on())        \
      ::genfv::util::trace_record_instant(category, name); \
  } while (0)
#endif

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter. Callers cache the reference once (registry lookups
/// lock a mutex) and pay one relaxed atomic add per update.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed gauge (instantaneous quantity: queue depth, frontier level, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Exponential-bucket histogram. Bucket i covers values <=
/// `first_bound << i`; one extra overflow bucket catches the rest. All
/// updates are relaxed atomics; observe() is wait-free.
class Histogram {
 public:
  explicit Histogram(std::uint64_t first_bound = 1024, std::size_t buckets = 24);

  void observe(std::uint64_t value) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max_seen() const noexcept { return max_.load(std::memory_order_relaxed); }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Upper bound of bucket `i`; the last bucket is unbounded (returns ~0).
  std::uint64_t bucket_bound(std::size_t i) const noexcept;
  std::uint64_t bucket_value(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::uint64_t first_bound_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // last = overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Process-global registry of named metrics. Lookup locks a mutex and
/// returns a reference that stays valid for the process lifetime (reset()
/// zeroes values but never removes entries, so cached references survive).
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::uint64_t first_bound = 1024,
                       std::size_t buckets = 24);

  /// Point-in-time copy of every counter/gauge value (histograms export
  /// count/sum/max under `<name>.count` etc.). Used for per-phase deltas in
  /// the shootout and by the heartbeat.
  std::map<std::string, std::int64_t> snapshot_values() const;

  /// Full JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, max, buckets: [[bound, n], ...]}}}.
  std::string to_json() const;

  /// Zero every metric (entries survive, references stay valid).
  void reset();

 private:
  MetricsRegistry() = default;
  // Deliberately unnamed: a named Mutex records contention through
  // mutex_contention_record(), which resolves counters through *this*
  // registry — naming mu_ would recurse into its own lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GENFV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GENFV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GENFV_GUARDED_BY(mu_);
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

/// Write `metrics().to_json()` to `path`. Returns false (and logs) on
/// failure.
bool write_metrics_json(const std::string& path);

/// RAII timer that adds elapsed nanoseconds to `counter` at scope exit.
/// Reads no clock when telemetry is off.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Counter& counter) noexcept {
    if (telemetry_on()) {
      counter_ = &counter;
      start_ns_ = telemetry_now_ns();
    }
  }
  ~ScopedTimerNs() {
    if (counter_ != nullptr) counter_->add(telemetry_now_ns() - start_ns_);
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Counter* counter_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Progress heartbeat
// ---------------------------------------------------------------------------

/// Background thread that invokes `status` every `interval_seconds` and
/// logs any non-empty result at Info level under the `progress` component.
/// The destructor stops and joins; stop() is idempotent.
class Heartbeat {
 public:
  using StatusFn = std::function<std::string()>;

  Heartbeat(double interval_seconds, StatusFn status);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void stop();

 private:
  void run(double interval_seconds);

  StatusFn status_;
  Mutex mu_{"telemetry.heartbeat"};
  CondVar cv_;
  bool stop_ GENFV_GUARDED_BY(mu_) = false;
  std::thread thread_;  // joined only by stop(); not guarded
};

/// Stateful status-line builder for the heartbeat: reads the global metrics
/// registry (pdr.frontier, pdr.obligations_queued, sat.conflicts, ...) and
/// reports rates against the previous invocation.
class ProgressStatus {
 public:
  std::string operator()();

 private:
  std::uint64_t last_conflicts_ = 0;
  std::uint64_t last_sat_calls_ = 0;
  std::uint64_t last_ns_ = 0;
};

}  // namespace genfv::util
