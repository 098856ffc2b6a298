#pragma once

/// \file worker_pool.hpp
/// Bounded worker pool for the verification server: FIFO job queue, per-job
/// cooperative cancellation, per-job deadlines, graceful drain.
///
/// Cancellation model — cooperative all the way down, matching the engine
/// stack: every job owns a `std::shared_ptr<std::atomic<bool>>` stop flag
/// (the exact object `mc::EngineOptions::stop` takes) plus a reason code.
/// `cancel()` and the deadline watchdog only ever *set* the flag; the job
/// body polls it (the engines poll between SAT queries). A job cancelled
/// while still queued is not skipped — its body runs with the flag already
/// set, so it can still emit its response ("stopped": "cancel") through
/// whatever sink it captured; the pool never needs a response channel of its
/// own.
///
/// Drain model: `drain()` stops admitting (`submit` returns false), then
/// blocks until queue and in-flight jobs hit zero — in-flight jobs finish
/// normally, which is what "graceful shutdown drains in-flight jobs" means.
/// The destructor drains and joins.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_safety.hpp"

namespace genfv::serve {

/// Longest job deadline, in milliseconds (one day). Capping it keeps the
/// conversion to a steady_clock offset defined; the server answers a larger
/// "deadline_ms" with `bad-field`.
inline constexpr std::int64_t kMaxDeadlineMs = 86'400'000;

/// Why a job's stop flag was raised. Engines only see the bool; the server
/// reads the reason afterwards to label the response.
enum class StopReason : int { None = 0, Cancel = 1, Deadline = 2, Shutdown = 3 };

/// Per-job cancellation handle, shared between the pool (which sets it) and
/// the job body (which polls it).
struct JobControl {
  std::shared_ptr<std::atomic<bool>> stop = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> reason{static_cast<int>(StopReason::None)};

  bool stopped() const noexcept { return stop->load(std::memory_order_relaxed); }
  StopReason stop_reason() const noexcept {
    return static_cast<StopReason>(reason.load(std::memory_order_relaxed));
  }
  /// First caller wins: a job cannot be "cancelled" after its deadline fired.
  void request_stop(StopReason why) noexcept {
    int expected = static_cast<int>(StopReason::None);
    reason.compare_exchange_strong(expected, static_cast<int>(why),
                                   std::memory_order_relaxed);
    stop->store(true, std::memory_order_relaxed);
  }
};

class WorkerPool {
 public:
  using Work = std::function<void(JobControl& control)>;

  struct Stats {
    std::size_t queued = 0;
    std::size_t active = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;   ///< jobs whose flag was raised by cancel()
    std::uint64_t deadlined = 0;   ///< jobs whose flag was raised by the watchdog
  };

  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueue a job. `id` is the caller's handle for cancel(); duplicates are
  /// allowed (cancel hits the oldest live one). `deadline_ms <= 0` means no
  /// deadline; a positive one must not exceed kMaxDeadlineMs. Returns false
  /// (job not enqueued) once draining started.
  bool submit(const std::string& id, double deadline_ms, Work work);

  /// Raise the stop flag of the oldest queued-or-running job with this id.
  /// Returns false when no live job matches (already finished or never seen).
  bool cancel(const std::string& id);

  /// Stop admitting and wait for every queued + in-flight job to finish.
  /// Idempotent; concurrent callers all block until empty.
  void drain();

  Stats stats() const;

#if defined(GENFV_TSA_NEGATIVE_TEST)
  /// Negative-compile probe (scripts/check_thread_safety.sh): reads a
  /// guarded field without taking mu_. MUST fail to compile under
  /// -Werror=thread-safety — if it ever compiles, the annotation coverage
  /// has rotted and the whole clang leg is vacuous. Never defined in real
  /// builds.
  std::size_t tsa_probe_unguarded() const { return queue_.size(); }
#endif

 private:
  struct Job {
    std::string id;
    Work work;
    std::shared_ptr<JobControl> control;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
  };

  void worker_loop();
  void watchdog_loop();

  mutable util::Mutex mu_{"serve.pool"};
  util::CondVar work_cv_;   // workers wait: queue non-empty or stopping
  util::CondVar idle_cv_;   // drain() waits: queue empty and nothing active
  util::CondVar watch_cv_;  // watchdog waits: next deadline or new job
  std::deque<Job> queue_ GENFV_GUARDED_BY(mu_);
  /// Controls of jobs currently being executed, still addressable by cancel.
  std::vector<std::pair<std::string, std::shared_ptr<JobControl>>> active_
      GENFV_GUARDED_BY(mu_);
  bool draining_ GENFV_GUARDED_BY(mu_) = false;
  bool stopping_ GENFV_GUARDED_BY(mu_) = false;
  std::uint64_t completed_ GENFV_GUARDED_BY(mu_) = 0;
  std::uint64_t cancelled_ GENFV_GUARDED_BY(mu_) = 0;
  std::uint64_t deadlined_ GENFV_GUARDED_BY(mu_) = 0;
  /// Deadlines the watchdog still tracks (queued or running jobs).
  std::vector<std::pair<std::chrono::steady_clock::time_point,
                        std::shared_ptr<JobControl>>>
      deadlines_ GENFV_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // joined by the destructor; not guarded
  std::thread watchdog_;              // joined by the destructor; not guarded
};

}  // namespace genfv::serve
