#include "util/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <sstream>

#include "util/log.hpp"

namespace genfv::util {

namespace telemetry_detail {
std::atomic<int> g_level{static_cast<int>(TelemetryLevel::Off)};
}  // namespace telemetry_detail

void set_telemetry_level(TelemetryLevel level) noexcept {
  telemetry_detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

TelemetryLevel telemetry_level() noexcept {
  return static_cast<TelemetryLevel>(
      telemetry_detail::g_level.load(std::memory_order_relaxed));
}

std::uint64_t telemetry_now_ns() noexcept {
  // One epoch per process, captured on first use; shared with the logger so
  // log timestamps and trace timestamps line up.
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

int telemetry_thread_id() noexcept {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------------
// Mutex bridge (declared in thread_safety.hpp, which cannot include us)
// ---------------------------------------------------------------------------

bool telemetry_on_for_mutex() noexcept { return telemetry_on(); }

std::uint64_t mutex_now_ns() noexcept { return telemetry_now_ns(); }

void mutex_contention_record(const char* name, std::uint64_t wait_ns) noexcept {
  // Lock-free name -> counters cache so a named Mutex's hot path never takes
  // the registry lock after first use. Slots are claimed by CAS; racers for
  // the same name converge on the same Counter objects because the registry
  // dedupes by name string. Deliberately mutex-free: this runs *inside*
  // Mutex::lock(), so taking any instrumented lock here would nest under
  // every named mutex in the process.
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<Counter*> wait{nullptr};
    std::atomic<Counter*> locks{nullptr};
  };
  static constexpr std::size_t kSlots = 32;
  static Slot slots[kSlots];
  for (std::size_t i = 0; i < kSlots; ++i) {
    Slot& s = slots[i];
    const char* cur = s.name.load(std::memory_order_acquire);
    if (cur == nullptr) {
      const char* expected = nullptr;
      if (s.name.compare_exchange_strong(expected, name, std::memory_order_acq_rel)) {
        cur = name;
      } else {
        cur = expected;  // another thread claimed this slot first
      }
    }
    if (cur == name || std::strcmp(cur, name) == 0) {
      Counter* w = s.wait.load(std::memory_order_acquire);
      Counter* l = s.locks.load(std::memory_order_acquire);
      if (w == nullptr || l == nullptr) {
        w = &metrics().counter(std::string(name) + "_mutex_wait_ns");
        l = &metrics().counter(std::string(name) + "_mutex_locks");
        s.wait.store(w, std::memory_order_release);
        s.locks.store(l, std::memory_order_release);
      }
      w->add(wait_ns);
      l->increment();
      return;
    }
  }
  // More than kSlots distinct named mutex classes: fall back to the registry.
  metrics().counter(std::string(name) + "_mutex_wait_ns").add(wait_ns);
  metrics().counter(std::string(name) + "_mutex_locks").increment();
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace {

struct TraceEvent {
  const char* category;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  bool instant;
};

/// Per-thread single-producer event log, grown lazily in fixed chunks so a
/// short-lived thread (a portfolio member, a server worker) costs
/// one chunk, not a full preallocated ring. Only the owning thread appends:
/// it publishes a new chunk with a release store of its pointer and each
/// event with a release store of the count; readers acquire the count and
/// see every event below it — and its chunk — fully written. Past the total
/// capacity, events are dropped (and counted) rather than blocking the hot
/// path.
class ThreadTraceBuffer {
 public:
  static constexpr std::size_t kChunkSize = 1 << 10;  // events per 40 KB chunk
  static constexpr std::size_t kMaxChunks = 1 << 10;  // ~1M events / 40 MB cap

  explicit ThreadTraceBuffer(int thread_id) : thread_id_(thread_id) {}
  ~ThreadTraceBuffer() {
    for (auto& slot : chunks_) delete slot.load(std::memory_order_relaxed);
  }

  void append(const char* category, const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns, bool instant) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= kChunkSize * kMaxChunks) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::atomic<Chunk*>& slot = chunks_[n / kChunkSize];
    Chunk* chunk = slot.load(std::memory_order_relaxed);  // only we store it
    if (chunk == nullptr) {
      chunk = new (std::nothrow) Chunk();
      if (chunk == nullptr) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      slot.store(chunk, std::memory_order_release);
    }
    chunk->events[n % kChunkSize] = TraceEvent{category, name, start_ns, dur_ns, instant};
    count_.store(n + 1, std::memory_order_release);
  }

  void snapshot_into(std::vector<TraceEventView>& out) const {
    const std::size_t n = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const Chunk* chunk = chunks_[i / kChunkSize].load(std::memory_order_acquire);
      const TraceEvent& e = chunk->events[i % kChunkSize];
      out.push_back(TraceEventView{e.category, e.name, thread_id_, e.start_ns, e.dur_ns,
                                   e.instant});
    }
  }

  std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }
  int thread_id() const noexcept { return thread_id_; }

  /// Tests only; caller must be quiescent. Chunks stay allocated for reuse.
  void clear() noexcept {
    count_.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    TraceEvent events[kChunkSize];
  };

  int thread_id_;
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Global list of per-thread buffers plus thread names. Buffers are
/// registered lazily on a thread's first recorded event and are kept alive
/// past thread exit so late export still sees their events.
struct TraceRegistry {
  Mutex mu{"telemetry.trace"};
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers GENFV_GUARDED_BY(mu);
  std::map<int, std::string> thread_names GENFV_GUARDED_BY(mu);

  static TraceRegistry& get() {
    static TraceRegistry* r = new TraceRegistry();  // immortal
    return *r;
  }
};

ThreadTraceBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> buf = [] {
    auto b = std::make_shared<ThreadTraceBuffer>(telemetry_thread_id());
    TraceRegistry& reg = TraceRegistry::get();
    MutexLock lock(reg.mu);
    reg.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", static_cast<unsigned>(c) & 0xff);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void set_trace_thread_name(const std::string& name) {
  TraceRegistry& reg = TraceRegistry::get();
  MutexLock lock(reg.mu);
  reg.thread_names[telemetry_thread_id()] = name;
}

void trace_record_span(const char* category, const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) noexcept {
  local_buffer().append(category, name, start_ns, dur_ns, /*instant=*/false);
}

void trace_record_instant(const char* category, const char* name) noexcept {
  local_buffer().append(category, name, telemetry_now_ns(), 0, /*instant=*/true);
}

std::vector<TraceEventView> trace_snapshot() {
  TraceRegistry& reg = TraceRegistry::get();
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  {
    MutexLock lock(reg.mu);
    buffers = reg.buffers;
  }
  std::stable_sort(buffers.begin(), buffers.end(),
                   [](const auto& a, const auto& b) { return a->thread_id() < b->thread_id(); });
  std::vector<TraceEventView> out;
  for (const auto& b : buffers) b->snapshot_into(out);
  return out;
}

std::size_t trace_registered_threads() {
  TraceRegistry& reg = TraceRegistry::get();
  MutexLock lock(reg.mu);
  return reg.buffers.size();
}

std::uint64_t trace_dropped_events() {
  TraceRegistry& reg = TraceRegistry::get();
  MutexLock lock(reg.mu);
  std::uint64_t total = 0;
  for (const auto& b : reg.buffers) total += b->dropped();
  return total;
}

std::string trace_to_json() {
  const std::vector<TraceEventView> events = trace_snapshot();
  std::map<int, std::string> names;
  {
    TraceRegistry& reg = TraceRegistry::get();
    MutexLock lock(reg.mu);
    names = reg.thread_names;
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"genfv\"}}";
  first = false;
  for (const auto& [tid, name] : names) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& e : events) {
    if (!first) os << ",";
    first = false;
    // Chrome trace timestamps are microseconds; keep ns precision with
    // fractional µs.
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                  static_cast<unsigned long long>(e.start_ns / 1000),
                  static_cast<unsigned long long>(e.start_ns % 1000));
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.category << "\",\"pid\":1,\"tid\":"
       << e.thread << ",\"ts\":" << ts;
    if (e.instant) {
      os << ",\"ph\":\"i\",\"s\":\"t\"}";
    } else {
      char dur[64];
      std::snprintf(dur, sizeof(dur), "%llu.%03llu",
                    static_cast<unsigned long long>(e.dur_ns / 1000),
                    static_cast<unsigned long long>(e.dur_ns % 1000));
      os << ",\"ph\":\"X\",\"dur\":" << dur << "}";
    }
  }
  os << "],\"otherData\":{\"droppedEvents\":" << trace_dropped_events() << "}}";
  return os.str();
}

bool write_trace_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_line(LogLevel::Warn, "telemetry", "cannot open trace output: " + path);
    return false;
  }
  const std::string json = trace_to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) log_line(LogLevel::Warn, "telemetry", "short write on trace output: " + path);
  return ok;
}

void trace_reset() {
  TraceRegistry& reg = TraceRegistry::get();
  MutexLock lock(reg.mu);
  for (auto& b : reg.buffers) b->clear();
  reg.thread_names.clear();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Histogram::Histogram(std::uint64_t first_bound, std::size_t buckets)
    : first_bound_(first_bound == 0 ? 1 : first_bound),
      buckets_(buckets < 2 ? 2 : buckets) {}

void Histogram::observe(std::uint64_t value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value && !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  std::uint64_t bound = first_bound_;
  std::size_t i = 0;
  const std::size_t last = buckets_.size() - 1;
  while (i < last && value > bound) {
    ++i;
    bound <<= 1;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_bound(std::size_t i) const noexcept {
  if (i + 1 >= buckets_.size()) return ~std::uint64_t{0};
  return first_bound_ << i;
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry();  // immortal
  return *r;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::uint64_t first_bound,
                                      std::size_t buckets) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(first_bound, buckets);
  return *slot;
}

std::map<std::string, std::int64_t> MetricsRegistry::snapshot_values() const {
  MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = static_cast<std::int64_t>(c->value());
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<std::int64_t>(h->count());
    out[name + ".sum"] = static_cast<std::int64_t>(h->sum());
    out[name + ".max"] = static_cast<std::int64_t>(h->max_seen());
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h->count() << ",\"sum\":" << h->sum()
       << ",\"max\":" << h->max_seen() << ",\"buckets\":[";
    bool bfirst = true;
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      const std::uint64_t n = h->bucket_value(i);
      if (n == 0) continue;  // keep the snapshot small: omit empty buckets
      if (!bfirst) os << ",";
      bfirst = false;
      if (i + 1 < h->bucket_count()) {
        os << "[" << h->bucket_bound(i) << "," << n << "]";
      } else {
        os << "[null," << n << "]";
      }
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

bool write_metrics_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_line(LogLevel::Warn, "telemetry", "cannot open metrics output: " + path);
    return false;
  }
  const std::string json = metrics().to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) log_line(LogLevel::Warn, "telemetry", "short write on metrics output: " + path);
  return ok;
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

Heartbeat::Heartbeat(double interval_seconds, StatusFn status) : status_(std::move(status)) {
  thread_ = std::thread([this, interval_seconds] { run(interval_seconds); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    MutexLock lock(mu_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Heartbeat::run(double interval_seconds) {
  set_trace_thread_name("heartbeat");
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(interval_seconds < 0.001 ? 0.001 : interval_seconds));
  // Explicit wait loop (not the predicate-lambda overload): clang's
  // thread-safety analysis cannot see into a predicate lambda, but it checks
  // the guarded stop_ reads here directly.
  MutexLock lock(mu_);
  for (;;) {
    if (stop_) break;
    if (cv_.wait_for(mu_, interval)) {
      // Notified (stop()) or spurious wakeup — re-check stop_ before another
      // full interval; a rare spurious wakeup merely delays one beat.
      continue;
    }
    if (stop_) break;
    lock.Unlock();
    std::string line;
    if (status_) line = status_();
    if (!line.empty()) log_line(LogLevel::Info, "progress", line);
    lock.Lock();
  }
}

std::string ProgressStatus::operator()() {
  auto& reg = metrics();
  const std::uint64_t now_ns = telemetry_now_ns();
  const std::uint64_t conflicts = reg.counter("sat.conflicts").value();
  const std::uint64_t sat_calls = reg.counter("sat.solves").value();
  const std::int64_t frontier = reg.gauge("pdr.frontier").value();
  const std::int64_t queued = reg.gauge("pdr.obligations_queued").value();
  const double dt = last_ns_ == 0 ? 0.0 : static_cast<double>(now_ns - last_ns_) / 1e9;
  const double conflicts_per_s =
      dt > 0.0 ? static_cast<double>(conflicts - last_conflicts_) / dt : 0.0;
  const double solves_per_s =
      dt > 0.0 ? static_cast<double>(sat_calls - last_sat_calls_) / dt : 0.0;
  last_conflicts_ = conflicts;
  last_sat_calls_ = sat_calls;
  last_ns_ = now_ns;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "frame=%lld queue=%lld sat_calls=%llu conflicts=%llu (%.0f solves/s, %.0f "
                "conflicts/s)",
                static_cast<long long>(frontier), static_cast<long long>(queued),
                static_cast<unsigned long long>(sat_calls),
                static_cast<unsigned long long>(conflicts), solves_per_s, conflicts_per_s);
  return buf;
}

}  // namespace genfv::util
