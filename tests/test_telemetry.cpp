/// Telemetry subsystem tests: runtime-level gating, disabled-mode
/// zero-allocation, span nesting and thread attribution, instants, histogram
/// bucket boundaries, registry snapshots and reference stability, trace-JSON
/// well-formedness (checked with a standalone validator), the heartbeat
/// thread, and the thread-safety of the leveled logger.
///
/// NOTE: the first test asserts that no per-thread trace buffer exists yet,
/// so tests that enable tracing must come after it (gtest runs tests in
/// declaration order within one binary).

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace genfv::util {
namespace {

/// RAII guard: every test leaves telemetry exactly as it found it.
struct TelemetryGuard {
  TelemetryGuard() {
    set_telemetry_level(TelemetryLevel::Off);
    trace_reset();
  }
  ~TelemetryGuard() {
    set_telemetry_level(TelemetryLevel::Off);
    trace_reset();
  }
};

// --- disabled mode (must stay the first tests in this file) -----------------

TEST(TelemetryDisabled, SpansAllocateNoBuffersWhenOff) {
  ASSERT_EQ(telemetry_level(), TelemetryLevel::Off);
  const std::size_t before = trace_registered_threads();
  {
    GENFV_TRACE_SPAN("test", "outer");
    GENFV_TRACE_INSTANT("test", "tick");
    GENFV_TRACE_SPAN("test", "inner");
  }
  std::thread t([] {
    GENFV_TRACE_SPAN("test", "worker_span");
  });
  t.join();
  // No ring buffer was ever created: the off path is one branch, no state.
  EXPECT_EQ(trace_registered_threads(), before);
  EXPECT_EQ(before, 0u);
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST(TelemetryDisabled, TimersAndGatesReadNoClock) {
  TelemetryGuard guard;
  Counter& c = metrics().counter("test.disabled_timer_ns");
  c.reset();
  { ScopedTimerNs timer(c); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(telemetry_on());
  EXPECT_FALSE(tracing_on());
}

// --- runtime level ----------------------------------------------------------

TEST(TelemetryLevelTest, MetricsLevelEnablesTimersButNotSpans) {
  TelemetryGuard guard;
  set_telemetry_level(TelemetryLevel::Metrics);
  EXPECT_TRUE(telemetry_on());
  EXPECT_FALSE(tracing_on());
  Counter& c = metrics().counter("test.metrics_timer_ns");
  c.reset();
  {
    ScopedTimerNs timer(c);
    GENFV_TRACE_SPAN("test", "not_recorded");
  }
  EXPECT_GT(c.value(), 0u);
  EXPECT_TRUE(trace_snapshot().empty());  // spans need Tracing
}

// --- spans ------------------------------------------------------------------

TEST(TraceSpans, NestingAndThreadAttribution) {
  TelemetryGuard guard;
  set_telemetry_level(TelemetryLevel::Tracing);
  const int main_tid = telemetry_thread_id();

  {
    GENFV_TRACE_SPAN("test", "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      GENFV_TRACE_SPAN("test", "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::atomic<int> worker_tid{-1};
  std::thread t([&] {
    set_trace_thread_name("unit-worker");
    worker_tid = telemetry_thread_id();
    GENFV_TRACE_SPAN("test", "worker_span");
  });
  t.join();

  const auto events = trace_snapshot();
  ASSERT_EQ(events.size(), 3u);

  const TraceEventView* outer = nullptr;
  const TraceEventView* inner = nullptr;
  const TraceEventView* worker = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
    if (std::string(e.name) == "worker_span") worker = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker, nullptr);

  // Nesting: inner lies strictly within outer (RAII scopes cannot overlap
  // otherwise), and both carry the recording thread's id.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_GT(outer->dur_ns, inner->dur_ns);
  EXPECT_EQ(outer->thread, main_tid);
  EXPECT_EQ(inner->thread, main_tid);
  EXPECT_EQ(worker->thread, worker_tid.load());
  EXPECT_NE(worker->thread, main_tid);
  EXPECT_EQ(std::string(outer->category), "test");

  // The worker's name reaches the JSON export as thread metadata.
  EXPECT_NE(trace_to_json().find("unit-worker"), std::string::npos);
}

TEST(TraceSpans, InstantsRecordZeroDuration) {
  TelemetryGuard guard;
  set_telemetry_level(TelemetryLevel::Tracing);
  GENFV_TRACE_INSTANT("test", "tick");
  const auto events = trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].dur_ns, 0u);
}

TEST(TraceSpans, ConcurrentRecordingIsLosslessPerThread) {
  TelemetryGuard guard;
  set_telemetry_level(TelemetryLevel::Tracing);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) GENFV_TRACE_SPAN("test", "burst");
    });
  }
  for (auto& t : threads) t.join();
  std::size_t burst = 0;
  for (const auto& e : trace_snapshot()) {
    if (std::string(e.name) == "burst") ++burst;
  }
  EXPECT_EQ(burst, static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(trace_dropped_events(), 0u);
}

// --- trace JSON -------------------------------------------------------------

/// Minimal standalone JSON validator (objects, arrays, strings, numbers,
/// true/false/null) — enough for a genuine well-formedness round trip
/// without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TraceJson, ExportIsWellFormedAndCarriesEvents) {
  TelemetryGuard guard;
  set_telemetry_level(TelemetryLevel::Tracing);
  set_trace_thread_name("json \"escaped\"\nname");  // exercises escaping
  {
    GENFV_TRACE_SPAN("pdr", "block_one");
  }
  GENFV_TRACE_INSTANT("pdr", "push_level");
  const std::string json = trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"block_one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread metadata
  EXPECT_NE(json.find("droppedEvents"), std::string::npos);
}

TEST(TraceJson, EmptyTraceIsStillValid) {
  TelemetryGuard guard;
  const std::string json = trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

// --- metrics ----------------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  Counter& c = metrics().counter("test.counter");
  c.reset();
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = metrics().gauge("test.gauge");
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);

  // Lookup returns the same object; reset() zeroes but never invalidates.
  Counter& again = metrics().counter("test.counter");
  EXPECT_EQ(&c, &again);
  metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // first_bound=8, 4 buckets: (..8], (8..16], (16..32], overflow.
  Histogram h(8, 4);
  h.observe(1);
  h.observe(8);    // exactly on the first bound -> bucket 0
  h.observe(9);    // just past it -> bucket 1
  h.observe(16);   // on the second bound -> bucket 1
  h.observe(17);   // -> bucket 2
  h.observe(32);   // -> bucket 2
  h.observe(33);   // past the last bound -> overflow
  h.observe(1u << 30);

  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 2u);
  EXPECT_EQ(h.bucket_value(3), 2u);
  EXPECT_EQ(h.bucket_bound(0), 8u);
  EXPECT_EQ(h.bucket_bound(1), 16u);
  EXPECT_EQ(h.bucket_bound(2), 32u);
  EXPECT_EQ(h.bucket_bound(3), ~std::uint64_t{0});  // overflow is unbounded
  EXPECT_EQ(h.sum(), 1u + 8 + 9 + 16 + 17 + 32 + 33 + (1u << 30));
  EXPECT_EQ(h.max_seen(), 1u << 30);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_value(0), 0u);
}

TEST(Metrics, RegistryJsonIsWellFormed) {
  metrics().counter("test.json_counter").add(3);
  metrics().gauge("test.json_gauge").set(-5);
  metrics().histogram("test.json_hist", 2, 4).observe(3);
  const std::string json = metrics().to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  metrics().reset();
}

TEST(Metrics, SnapshotValuesFlattenHistograms) {
  metrics().reset();
  metrics().counter("test.snap_counter").add(11);
  metrics().histogram("test.snap_hist", 2, 4).observe(5);
  const auto snap = metrics().snapshot_values();
  EXPECT_EQ(snap.at("test.snap_counter"), 11);
  EXPECT_EQ(snap.at("test.snap_hist.count"), 1);
  EXPECT_EQ(snap.at("test.snap_hist.sum"), 5);
  metrics().reset();
}

// --- heartbeat --------------------------------------------------------------

TEST(HeartbeatTest, FiresPeriodicallyAndStopsCleanly) {
  std::atomic<int> fired{0};
  {
    Heartbeat hb(0.005, [&] {
      ++fired;
      return std::string();  // empty -> nothing logged
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    hb.stop();
    const int at_stop = fired.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(fired.load(), at_stop);  // no firing after stop
  }
  EXPECT_GE(fired.load(), 1);
}

TEST(HeartbeatTest, ProgressStatusReportsRegistryValues) {
  TelemetryGuard guard;
  metrics().reset();
  metrics().gauge("pdr.frontier").set(5);
  metrics().gauge("pdr.obligations_queued").set(3);
  metrics().counter("sat.conflicts").add(100);
  ProgressStatus status;
  const std::string line = status();
  EXPECT_NE(line.find("frame=5"), std::string::npos) << line;
  EXPECT_NE(line.find("queue=3"), std::string::npos) << line;
  EXPECT_NE(line.find("conflicts=100"), std::string::npos) << line;
  metrics().reset();
}

// --- logger thread-safety ---------------------------------------------------

TEST(LogThreadSafety, ConcurrentLinesNeverInterleave) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Info);
  constexpr int kThreads = 8;
  constexpr int kLines = 50;

  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        log_line(LogLevel::Info, "logtest",
                 "thread " + std::to_string(t) + " line " + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string captured = testing::internal::GetCapturedStderr();
  set_log_level(saved);

  // Every emitted line is intact: timestamp + thread id + level + component
  // + message, one per line, exactly kThreads * kLines of them.
  const std::regex line_re(
      R"(\[ *\d+\.\d{3}\]\[T\d+\]\[INFO \]\[logtest\] thread \d+ line \d+)");
  std::istringstream in(captured);
  std::string line;
  int matched = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "mangled line: " << line;
    ++matched;
  }
  EXPECT_EQ(matched, kThreads * kLines);
}

TEST(LogFormat, PrefixCarriesTimestampAndThreadId) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Warn);
  testing::internal::CaptureStderr();
  log_line(LogLevel::Warn, "fmt", "hello");
  const std::string captured = testing::internal::GetCapturedStderr();
  set_log_level(saved);
  const std::regex re(R"(\[ *\d+\.\d{3}\]\[T\d+\]\[WARN \]\[fmt\] hello\n)");
  EXPECT_TRUE(std::regex_match(captured, re)) << captured;
}

}  // namespace
}  // namespace genfv::util
