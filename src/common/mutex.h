// The repo's one blessed lock: a std::mutex wrapper carrying Clang Thread
// Safety Analysis annotations, plus its RAII guard.
//
// Raw `std::mutex` / `std::lock_guard` are banned outside this header
// (cmcp_lint rule `raw-mutex`): an unannotated mutex protects nothing at
// compile time, and the code that does run on several host threads (the
// parallel experiment runner, the trace sink, the PCIe link's counters)
// compiles against `-Wthread-safety -Werror`.
//
// Lock hierarchy (acquire strictly downward; documented, not yet
// machine-checked):
//
//   core::AddressSpace::scan_mu_         (scanner flush batch)
//     -> sim::Machine::shootdown_mu_     (invalidation-slot capability)
//       -> sim::trace::EventSink::mu_    (event buffer)
//   sim::PcieLink::mu_                   (leaf; never held across calls out)
//   metrics::ResultWriter::mu_           (leaf)
//   parallel-runner job state            (leaf)
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
  bool try_lock() CMCP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

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
