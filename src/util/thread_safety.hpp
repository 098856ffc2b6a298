#pragma once

/// \file thread_safety.hpp
/// Clang Thread Safety Analysis capability macros plus the project's
/// annotated mutex primitives. Every lock in genfv goes through this header
/// (enforced by scripts/lint_genfv.py: no bare `std::mutex` outside
/// thread_safety.hpp / lock_order.hpp), which buys three things at once:
///
///  1. **Compile-time lock checking** — under clang, `GENFV_GUARDED_BY` /
///     `GENFV_REQUIRES` / `GENFV_ACQUIRE` annotations turn the informal
///     "guarded by mu_" comments into `-Werror=thread-safety` diagnostics.
///     Non-clang compilers see empty macros and plain std::mutex behavior.
///  2. **Runtime lock-order checking** — Debug builds (GENFV_LOCK_ORDER
///     defined by CMake) route every acquire/release through the lockdep
///     layer in util/lock_order.hpp, which records the cross-class
///     acquisition graph and flags cycles (potential deadlocks).
///  3. **Contention telemetry** — a named Mutex attributes its lock-wait
///     time to `<name>_mutex_wait_ns` / `<name>_mutex_locks` when telemetry
///     is on.
///
/// Annotation conventions (docs/static-analysis.md):
///  * every mutex-protected field carries GENFV_GUARDED_BY(mu_);
///  * private helpers that expect the lock held carry GENFV_REQUIRES(mu_);
///  * scoped locking uses MutexLock (never raw lock()/unlock() pairs);
///  * condition waits go through CondVar, whose wait() requires the mutex.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// --- capability macros -------------------------------------------------------
// Empty on non-clang compilers: gcc compiles the same code with the
// attributes erased, so the annotations cost nothing outside the clang
// `-Werror=thread-safety` CI leg.

#if defined(__clang__)
#define GENFV_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GENFV_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a lockable capability ("mutex").
#define GENFV_CAPABILITY(x) GENFV_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires on construction, releases on
/// destruction (MutexLock below).
#define GENFV_SCOPED_CAPABILITY GENFV_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read/written while holding the named capability.
#define GENFV_GUARDED_BY(x) GENFV_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be accessed while holding the named capability.
#define GENFV_PT_GUARDED_BY(x) GENFV_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the capability held on entry (and does not release it).
#define GENFV_REQUIRES(...) GENFV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capability; held on return.
#define GENFV_ACQUIRE(...) GENFV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability; not held on return.
#define GENFV_RELEASE(...) GENFV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability when returning `ret`.
#define GENFV_TRY_ACQUIRE(ret, ...) \
  GENFV_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Caller must NOT hold the capability (deadlock guard for self-locking APIs).
#define GENFV_EXCLUDES(...) GENFV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define GENFV_RETURN_CAPABILITY(x) GENFV_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables analysis for one function. Use only for patterns
/// the analysis cannot express, with a comment saying why.
#define GENFV_NO_THREAD_SAFETY_ANALYSIS \
  GENFV_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace genfv::util {

namespace lockdep {
// Hooks implemented in lock_order.cpp; no-op inline stubs otherwise so
// Release builds pay nothing. `site` identifies the lock *class* (all
// instances constructed with the same name share one node in the
// acquisition graph, like Linux lockdep's lock classes).
#if defined(GENFV_LOCK_ORDER)
void on_acquire(const void* mutex, const char* site) noexcept;
void on_release(const void* mutex, const char* site) noexcept;
#else
inline void on_acquire(const void*, const char*) noexcept {}
inline void on_release(const void*, const char*) noexcept {}
#endif
}  // namespace lockdep

// Implemented in telemetry.cpp; redeclared here so this header does not need
// to pull in telemetry.hpp (telemetry.hpp includes *us*).
bool telemetry_on_for_mutex() noexcept;
std::uint64_t mutex_now_ns() noexcept;
void mutex_contention_record(const char* name, std::uint64_t wait_ns) noexcept;

/// Annotated mutex. Wraps std::mutex; adds the capability attributes, the
/// Debug lock-order hooks, and (for named instances) contention telemetry:
/// a Mutex constructed with name "mc.mailbox" attributes its lock waits to
/// the `mc.mailbox_mutex_wait_ns` / `mc.mailbox_mutex_locks` counters
/// whenever telemetry is on.
class GENFV_CAPABILITY("mutex") Mutex {
 public:
  /// `name` doubles as the lockdep class and the telemetry metric prefix.
  /// It must be a string literal (or otherwise immortal). Unnamed mutexes
  /// get the shared "mutex" lockdep class and record no telemetry.
  constexpr Mutex() noexcept : name_(nullptr) {}
  constexpr explicit Mutex(const char* name) noexcept : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GENFV_ACQUIRE() {
    if (name_ != nullptr && telemetry_on_for_mutex()) {
      const std::uint64_t t0 = mutex_now_ns();
      mu_.lock();
      mutex_contention_record(name_, mutex_now_ns() - t0);
    } else {
      mu_.lock();
    }
    lockdep::on_acquire(this, site());
  }

  void unlock() GENFV_RELEASE() {
    lockdep::on_release(this, site());
    mu_.unlock();
  }

  bool try_lock() GENFV_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdep::on_acquire(this, site());
    return true;
  }

  const char* site() const noexcept { return name_ != nullptr ? name_ : "mutex"; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_;
};

/// RAII scoped lock over Mutex — the only sanctioned way to hold one.
/// Supports the mid-scope Unlock()/Lock() cycle the telemetry heartbeat
/// needs (status emission happens unlocked), in the exact shape clang's
/// analysis understands for scoped capabilities.
class GENFV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GENFV_ACQUIRE(mu) : mu_(&mu), held_(true) {
    mu.lock();
  }

  ~MutexLock() GENFV_RELEASE() {
    if (held_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily release (solver work, blocking I/O); pair with Lock().
  void Unlock() GENFV_RELEASE() {
    held_ = false;
    mu_->unlock();
  }

  void Lock() GENFV_ACQUIRE() {
    mu_->lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool held_;
};

/// Condition variable bound to the annotated Mutex. wait()/wait_for()
/// require the mutex held (the analysis sees the guarded predicate reads in
/// the caller's explicit wait loop — use `for (;;) { if (pred) break;
/// cv.wait(mu); }` instead of the predicate-lambda overloads, which the
/// analysis cannot look into).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// The lockdep hooks see the release/re-acquire pair, so a wait can never
  /// masquerade as "held across" in the acquisition graph.
  void wait(Mutex& mu) GENFV_REQUIRES(mu) {
    lockdep::on_release(&mu, mu.site());
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
    lockdep::on_acquire(&mu, mu.site());
  }

  /// Returns false on timeout (mutex re-acquired either way).
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur)
      GENFV_REQUIRES(mu) {
    lockdep::on_release(&mu, mu.site());
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(relock, dur);
    relock.release();
    lockdep::on_acquire(&mu, mu.site());
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace genfv::util
