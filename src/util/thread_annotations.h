// Clang thread-safety analysis annotations (no-ops on other compilers).
//
// These macros attach the static locking contract to declarations so that a
// clang build with -Wthread-safety turns violations of the runtime's
// serialization discipline into compile errors instead of TSan findings on
// whichever schedules a test happens to exercise.  The spelling follows the
// canonical LLVM mutex.h example so the annotated code reads like upstream
// documentation.  See docs/STATIC_ANALYSIS.md for the project's locking map.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define MTDS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MTDS_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

// A type that acts as a lock (util::Mutex below).
#define CAPABILITY(x) MTDS_THREAD_ANNOTATION__(capability(x))

// An RAII type that acquires in its constructor and releases in its
// destructor (util::MutexLock).
#define SCOPED_CAPABILITY MTDS_THREAD_ANNOTATION__(scoped_lockable)

// Data members readable/writable only while the capability is held.
#define GUARDED_BY(x) MTDS_THREAD_ANNOTATION__(guarded_by(x))

// Pointer members whose *pointee* is protected by the capability (the
// pointer itself may be read freely, e.g. set once at construction).
#define PT_GUARDED_BY(x) MTDS_THREAD_ANNOTATION__(pt_guarded_by(x))

// Static lock-ordering declarations; an inversion becomes a warning.
#define ACQUIRED_BEFORE(...) \
  MTDS_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  MTDS_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

// The function may only be called while the capability is already held.
#define REQUIRES(...) \
  MTDS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  MTDS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// The function acquires/releases the capability itself.
#define ACQUIRE(...) MTDS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  MTDS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) MTDS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  MTDS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

// The function must NOT be called with the capability held (it acquires the
// lock itself; calling it under the lock would self-deadlock a plain mutex).
#define EXCLUDES(...) MTDS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (for code clang cannot see
// through, e.g. callbacks invoked from an already-locked dispatch loop).
#define ASSERT_CAPABILITY(x) MTDS_THREAD_ANNOTATION__(assert_capability(x))

// The function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) MTDS_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch for functions deliberately outside the analysis.
#define NO_THREAD_SAFETY_ANALYSIS \
  MTDS_THREAD_ANNOTATION__(no_thread_safety_analysis)
