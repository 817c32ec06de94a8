// Annotated locking primitives.
//
// std::mutex and std::lock_guard carry no thread-safety attributes in
// libstdc++, so clang's -Wthread-safety cannot see acquisitions made through
// them.  These thin wrappers add the CAPABILITY/SCOPED_CAPABILITY attributes
// (zero overhead; the annotations compile away entirely off clang) so that
// GUARDED_BY members are statically checked wherever they are touched.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace mtds::util {

// An annotated std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock for Mutex; the scoped analogue of std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable for the annotated Mutex.  wait_for REQUIRES the
// mutex held on entry; it is released while blocked and held again on
// return, which is exactly the capability state the analysis assumes.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_all() noexcept { cv_.notify_all(); }

  void wait_for(Mutex& mu, double seconds) REQUIRES(mu) {
    LockRef ref{mu};
    cv_.wait_for(ref, std::chrono::duration<double>(seconds));
  }

 private:
  // BasicLockable view of an already-held Mutex, for condition_variable_any.
  // The unlock/relock performed inside the wait is invisible to callers, so
  // it is excluded from the analysis.
  struct LockRef {
    Mutex& mu;
    void lock() NO_THREAD_SAFETY_ANALYSIS { mu.lock(); }
    void unlock() NO_THREAD_SAFETY_ANALYSIS { mu.unlock(); }
  };

  std::condition_variable_any cv_;
};

}  // namespace mtds::util
