#ifndef TANE_UTIL_MUTEX_H_
#define TANE_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace tane {

/// Annotated wrappers over the std synchronization primitives. libstdc++'s
/// std::mutex is not a Clang thread-safety "capability", so TANE_GUARDED_BY
/// on members locked through it would not type-check; these wrappers carry
/// the capability annotations and delegate to the std types with zero
/// overhead. Library code uses these exclusively (enforced by
/// tools/tane_lint.py) so the `analysis` preset sees every lock.
class TANE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TANE_ACQUIRE() { mu_.lock(); }
  void Unlock() TANE_RELEASE() { mu_.unlock(); }
  bool TryLock() TANE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII exclusive lock on a Mutex (std::lock_guard with annotations).
class TANE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TANE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TANE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with tane::Mutex. Waits are annotated
/// TANE_REQUIRES(mu): the analysis checks the caller holds the mutex, and
/// callers re-test their predicate in a `while` loop around Wait/WaitUntil
/// (spurious wakeups are allowed, as with std::condition_variable).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks until notified (or spuriously), and
  /// reacquires `*mu` before returning.
  void Wait(Mutex* mu) TANE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  /// Like Wait, but also returns once `deadline` passes. Returns true when
  /// the wait timed out, false when it was notified (or woke spuriously).
  bool WaitUntil(Mutex* mu, std::chrono::steady_clock::time_point deadline)
      TANE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tane

#endif  // TANE_UTIL_MUTEX_H_
