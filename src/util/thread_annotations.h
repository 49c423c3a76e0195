#ifndef TANE_UTIL_THREAD_ANNOTATIONS_H_
#define TANE_UTIL_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis annotations (-Wthread-safety), in the style
// of Abseil's thread_annotations.h. They declare which lock protects which
// data and which locks a function needs, so the `analysis` CMake preset can
// reject mis-locked code at compile time. On compilers without the
// attributes (GCC, MSVC) every macro expands to nothing, so annotated code
// builds everywhere.
//
// The annotations only attach to the tane::Mutex wrapper from
// util/mutex.h (std::mutex is not a Clang "capability" under
// libstdc++), which is why library code uses the wrappers instead of the
// std types — tools/tane_lint.py enforces that.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define TANE_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(TANE_THREAD_ANNOTATION_)
#define TANE_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

// Marks a class as a lockable capability ("mutex" names the kind in
// diagnostics).
#define TANE_CAPABILITY(x) TANE_THREAD_ANNOTATION_(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases a
// capability.
#define TANE_SCOPED_CAPABILITY TANE_THREAD_ANNOTATION_(scoped_lockable)

// Declares that a data member may only be accessed while holding `x`.
#define TANE_GUARDED_BY(x) TANE_THREAD_ANNOTATION_(guarded_by(x))

// Declares that the data *pointed to* by a pointer member is guarded by
// `x`; the pointer itself may be read freely.
#define TANE_PT_GUARDED_BY(x) TANE_THREAD_ANNOTATION_(pt_guarded_by(x))

// Declares that callers must hold the listed capabilities when calling
// the function.
#define TANE_REQUIRES(...) \
  TANE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// Declares that the function acquires (resp. releases) the listed
// capabilities; with no argument, the capability is `this`.
#define TANE_ACQUIRE(...) \
  TANE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define TANE_RELEASE(...) \
  TANE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

// Declares a function that acquires the capability only when it returns
// the given value (e.g. TryLock).
#define TANE_TRY_ACQUIRE(...) \
  TANE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Declares that callers must NOT hold the listed capabilities (deadlock
// prevention for functions that acquire them internally).
#define TANE_EXCLUDES(...) TANE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Declares that a function returns a reference to a capability.
#define TANE_RETURN_CAPABILITY(x) TANE_THREAD_ANNOTATION_(lock_returned(x))

// Asserts at runtime boundaries that the capability is held; informs the
// analysis without acquiring anything.
#define TANE_ASSERT_CAPABILITY(x) \
  TANE_THREAD_ANNOTATION_(assert_capability(x))

// Escape hatch for functions whose locking is deliberately outside the
// analysis (document why at every use).
#define TANE_NO_THREAD_SAFETY_ANALYSIS \
  TANE_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // TANE_UTIL_THREAD_ANNOTATIONS_H_
