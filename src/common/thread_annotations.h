// Clang Thread Safety Analysis annotations (Abseil-style, CMCP_-prefixed).
//
// These macros attach compile-time lock-discipline contracts to types and
// fields: which class is a lock, which RAII guard holds it, and which mutex
// guards which field. Under Clang with `-Wthread-safety` (the
// `thread-safety` CI job builds with `-Werror`) a violated contract is a
// build failure; under GCC and MSVC every macro expands to nothing, so the
// annotations are zero-cost documentation.
//
// The repo's only annotated lock is `common::Mutex` (common/mutex.h) — raw
// `std::mutex` is banned outside that wrapper by cmcp_lint's `raw-mutex`
// rule. Conventions live in docs/static-analysis.md.
#pragma once

#if defined(__clang__)
#define CMCP_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define CMCP_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define CMCP_CAPABILITY(x) CMCP_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define CMCP_SCOPED_CAPABILITY CMCP_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field may only be read/written while holding the given capability.
#define CMCP_GUARDED_BY(x) CMCP_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Function acquires the capability (and does not release it).
#define CMCP_ACQUIRE(...) \
  CMCP_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define CMCP_RELEASE(...) \
  CMCP_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
