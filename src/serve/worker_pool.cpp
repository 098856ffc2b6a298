#include "serve/worker_pool.hpp"

#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::serve {

WorkerPool::WorkerPool(std::size_t workers) {
  GENFV_ASSERT(workers >= 1, "WorkerPool needs at least one worker");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

WorkerPool::~WorkerPool() {
  drain();
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  watch_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  watchdog_.join();
}

bool WorkerPool::submit(const std::string& id, double deadline_ms, Work work) {
  auto control = std::make_shared<JobControl>();
  {
    util::MutexLock lock(mu_);
    if (draining_) return false;
    Job job;
    job.id = id;
    job.work = std::move(work);
    job.control = control;
    if (deadline_ms > 0) {
      GENFV_ASSERT(deadline_ms <= static_cast<double>(kMaxDeadlineMs),
                   "deadline beyond kMaxDeadlineMs");
      job.has_deadline = true;
      job.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(
                         static_cast<std::int64_t>(deadline_ms * 1000.0));
      deadlines_.emplace_back(job.deadline, control);
    }
    queue_.push_back(std::move(job));
    util::metrics().counter("serve.pool.submitted").increment();
  }
  work_cv_.notify_one();
  watch_cv_.notify_one();
  return true;
}

bool WorkerPool::cancel(const std::string& id) {
  std::shared_ptr<JobControl> control;
  {
    util::MutexLock lock(mu_);
    for (const Job& job : queue_) {
      if (job.id == id) {
        control = job.control;
        break;
      }
    }
    if (control == nullptr) {
      for (const auto& [active_id, active_control] : active_) {
        if (active_id == id) {
          control = active_control;
          break;
        }
      }
    }
    if (control == nullptr) return false;
    ++cancelled_;
  }
  control->request_stop(StopReason::Cancel);
  return true;
}

void WorkerPool::drain() {
  util::MutexLock lock(mu_);
  draining_ = true;
  for (;;) {
    if (queue_.empty() && active_.empty()) break;
    idle_cv_.wait(mu_);
  }
}

WorkerPool::Stats WorkerPool::stats() const {
  util::MutexLock lock(mu_);
  Stats s;
  s.queued = queue_.size();
  s.active = active_.size();
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.deadlined = deadlined_;
  return s;
}

void WorkerPool::worker_loop() {
  for (;;) {
    Job job;
    {
      util::MutexLock lock(mu_);
      for (;;) {
        if (!queue_.empty()) break;
        if (stopping_) return;
        work_cv_.wait(mu_);
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      active_.emplace_back(job.id, job.control);
    }
    job.work(*job.control);
    {
      util::MutexLock lock(mu_);
      for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->second == job.control) {
          active_.erase(it);
          break;
        }
      }
      ++completed_;
      if (job.control->stop_reason() == StopReason::Deadline) ++deadlined_;
      for (auto it = deadlines_.begin(); it != deadlines_.end(); ++it) {
        if (it->second == job.control) {
          deadlines_.erase(it);
          break;
        }
      }
      util::metrics().counter("serve.pool.completed").increment();
      if (queue_.empty() && active_.empty()) idle_cv_.notify_all();
    }
  }
}

void WorkerPool::watchdog_loop() {
  util::MutexLock lock(mu_);
  for (;;) {
    if (stopping_) return;
    // Fire every deadline that has passed, forget controls of finished jobs
    // lazily (a fired control is harmless: request_stop is idempotent).
    const auto now = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point next{};
    bool have_next = false;
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
      if (it->first <= now) {
        it->second->request_stop(StopReason::Deadline);
        it = deadlines_.erase(it);
      } else {
        if (!have_next || it->first < next) {
          next = it->first;
          have_next = true;
        }
        ++it;
      }
    }
    if (have_next) {
      const auto wait = next - std::chrono::steady_clock::now();
      if (wait > std::chrono::steady_clock::duration::zero()) {
        watch_cv_.wait_for(mu_, wait);
      }
    } else {
      watch_cv_.wait(mu_);
    }
  }
}

}  // namespace genfv::serve
