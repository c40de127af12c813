// The repo's one blessed lock: a std::mutex wrapper carrying Clang Thread
// Safety Analysis annotations, plus its RAII guard.
//
// Raw `std::mutex` / `std::lock_guard` are banned outside this header
// (cmcp_lint rule `raw-mutex`): an unannotated mutex protects nothing at
// compile time. A simulation runs on one host thread, so the only code that
// locks is the parallel experiment runner (metrics/parallel_runner.cpp),
// which compiles against `-Wthread-safety -Werror`; cmcp_lint's
// `stray-thread` rule keeps this wrapper out of every other file.
//
// Lock hierarchy: one leaf, the runner's first-error slot.
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace cmcp::common {

/// Annotated non-reentrant mutual-exclusion capability.
class CMCP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CMCP_ACQUIRE() { mu_.lock(); }
  void unlock() CMCP_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII guard: holds `mu` for the enclosing scope.
class CMCP_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) CMCP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() CMCP_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace cmcp::common
