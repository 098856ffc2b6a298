#pragma once

/// \file server.hpp
/// The resident verification server behind `tools/genfv_serve.cpp`.
///
/// Transport-agnostic core: `handle_line` consumes one request line and
/// emits every response line — immediate protocol errors and asynchronous
/// job completions alike — through a caller-supplied sink. `run_stdio` and
/// `run_socket` are thin transports over it (stdin/stdout pipe mode for
/// scripting, an AF_UNIX stream socket for concurrent clients).
///
/// Protocol (one JSON object per line; full schema in docs/serve.md):
///   {"id": ..., "op": "verify", "design"|"file"|"rtl": ..., ...}
///   {"id": ..., "op": "cancel", "job": <verify id>}
///   {"id": ..., "op": "status"}
///   {"id": ..., "op": "shutdown"}
///
/// Every request is answered by exactly one response object carrying the
/// request's `id`; malformed requests get `"ok": false` with a stable
/// `error` class and a located `message`. Verify responses report the
/// verdict plus the run's effort counters and how the proof cache
/// participated ("cache": "miss" | "hit" | "near" | "rejected" | "off").
///
/// Task reuse: tasks are expensive to elaborate, so finished jobs return
/// their task to a per-source idle pool; a resubmission checks a task out
/// instead of re-elaborating. Pooled tasks are immutable
/// (`shared_ptr<const flow::VerificationTask>`): a job reads the system and
/// creates nodes in its NodeManager, never declarations, so the next job
/// sees the task exactly as it was elaborated. The pool key covers
/// everything that feeds elaboration: the source (an edited file
/// re-elaborates) and its 'property' selection. NodeManager is not
/// thread-safe, so a task is checked out to one job at a time (the checkout
/// hand-off is the synchronization point); concurrent jobs on one source
/// each get their own task.

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "flow/job.hpp"
#include "serve/json.hpp"
#include "serve/proof_cache.hpp"
#include "serve/worker_pool.hpp"
#include "util/thread_safety.hpp"

namespace genfv::serve {

/// Largest "max_k" a verify request may carry. Larger values (and
/// fractional ones) are answered with `bad-field` rather than converted.
inline constexpr std::size_t kMaxRequestMaxK = 1'000'000;

/// A verify request without "engine" or "max_k" runs flow::JobSpec::server().
struct ServerOptions {
  /// Worker-pool width (concurrent verify jobs).
  std::size_t workers = 2;
  /// Proof cache on by default; "cache": false per request opts out too.
  bool cache = true;
  /// Persistence directory ("" keeps the cache in memory only) and near-miss
  /// similarity threshold.
  ProofCache::Options proof_cache;
};

class Server {
 public:
  /// Emits one complete response line (no trailing newline). Worker threads
  /// call it for job completions, so implementations must be thread-safe.
  using Sink = std::function<void(const std::string&)>;

  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse and dispatch one request line. Thread-safe; never throws —
  /// malformed input becomes an error response through `send`.
  void handle_line(const std::string& line, const Sink& send);

  /// Serve `in` line by line until EOF or a shutdown op; responses to `out`.
  void run_stdio(std::istream& in, std::ostream& out);

  /// Bind an AF_UNIX stream socket at `path` and serve concurrent clients
  /// until a shutdown op (or begin_shutdown). Each connection gets a reader
  /// thread; responses are written per-connection under a send mutex.
  /// Throws UsageError when the socket cannot be bound.
  void run_socket(const std::string& path);

  /// Stop admitting verify jobs and drain the in-flight ones (the shutdown
  /// op). Idempotent; blocks until drained.
  void begin_shutdown();
  /// Async-signal-safe half of begin_shutdown: flip the flag, touch no
  /// locks. The transport loops notice within their poll timeout and finish
  /// the drain on their own thread.
  void request_shutdown() noexcept {
    shutting_down_.store(true, std::memory_order_relaxed);
  }
  bool shutting_down() const noexcept {
    return shutting_down_.load(std::memory_order_relaxed);
  }

  ProofCache& cache() noexcept { return cache_; }
  WorkerPool& pool() noexcept { return pool_; }

  /// Cache-participation counters, exposed for the status op and tests.
  std::uint64_t cache_hits() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t cache_near_hits() const noexcept { return near_.load(std::memory_order_relaxed); }
  std::uint64_t cache_misses() const noexcept { return misses_.load(std::memory_order_relaxed); }
  /// Verify responses emitted. Unlike the pool's `completed` (which counts a
  /// job only once the worker retires it, so it can lag a just-received
  /// response by one), this is incremented *before* the response is sent: a
  /// client that has N verify responses in hand always reads `answered` >= N.
  std::uint64_t jobs_answered() const noexcept {
    return answered_.load(std::memory_order_relaxed);
  }

 private:
  struct PreparedJob;

  void dispatch(const Json& request, const Sink& send);
  void handle_verify(const Json& request, const std::string& id, const Sink& send);
  void run_verify_job(const std::shared_ptr<PreparedJob>& job, JobControl& control);
  /// Count + emit a verify job's response (see jobs_answered).
  void answer(const PreparedJob& job, const Json& response);

  using TaskHandle = std::shared_ptr<const flow::VerificationTask>;

  /// Parse and type-check a verify request's source fields (throws the
  /// protocol's `bad-field` / `missing-source` / `conflicting-source`).
  static flow::JobSource parse_source(const Json& request);
  /// A pooled task under `key`, or a fresh one built from `source`.
  TaskHandle checkout_task(const flow::JobSource& source, const std::string& key);
  void return_task(const std::string& key, TaskHandle task);

  const ServerOptions options_;
  ProofCache cache_;
  WorkerPool pool_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> near_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> answered_{0};
  util::Mutex tasks_mu_{"serve.sessions"};
  std::map<std::string, std::vector<TaskHandle>> idle_tasks_ GENFV_GUARDED_BY(tasks_mu_);
};

}  // namespace genfv::serve
