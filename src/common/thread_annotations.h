// Clang Thread Safety Analysis for the library's locking discipline.
//
// Two layers live here:
//
//  1. The PF_* annotation macros, thin wrappers over clang's
//     -Wthread-safety attributes (no-ops on every other compiler). They
//     let a header DECLARE which mutex guards which field and which
//     capability a function requires, and let the clang CI leg prove the
//     declarations hold on every path — the thread-count-invariance
//     contract stops being folklore and becomes a compile error.
//
//  2. Capability-annotated wrappers over the std primitives: pf::Mutex,
//     pf::MutexLock, and pf::CondVar. std::mutex itself carries no
//     capability attribute, so fields cannot be PF_GUARDED_BY it; all
//     locking in the library goes through these wrappers instead
//     (tools/pf_analyzer's raw-mutex rule enforces this greppably).
//
// Annotation style, used across engine/, pufferfish/, and common/:
//  - every mutable field shared between threads is PF_GUARDED_BY(mu_);
//  - private helpers that assume the lock are PF_REQUIRES(mu_) and named
//    *Locked;
//  - public entry points that take the lock themselves are PF_EXCLUDES(mu_)
//    where re-entry would deadlock;
//  - condition waits are explicit `while (!cond) cv.Wait(mu);` loops, not
//    predicate lambdas: the analysis cannot see through std::function, but
//    it fully checks the loop body in the enclosing scope.
#ifndef PUFFERFISH_COMMON_THREAD_ANNOTATIONS_H_
#define PUFFERFISH_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define PF_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PF_THREAD_ANNOTATION_(x)  // no-op
#endif

/// Marks a class as a capability (lockable) type.
#define PF_CAPABILITY(x) PF_THREAD_ANNOTATION_(capability(x))
/// Marks a RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define PF_SCOPED_CAPABILITY PF_THREAD_ANNOTATION_(scoped_lockable)

/// Field is protected by the given capability (read AND write require it).
#define PF_GUARDED_BY(x) PF_THREAD_ANNOTATION_(guarded_by(x))
/// Pointed-to data is protected by the given capability.
#define PF_PT_GUARDED_BY(x) PF_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the capability held on entry (and does not release it).
#define PF_REQUIRES(...) \
  PF_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function must NOT be called with the capability held (deadlock guard).
#define PF_EXCLUDES(...) PF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define PF_ACQUIRE(...) \
  PF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define PF_RELEASE(...) \
  PF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `ret`.
#define PF_TRY_ACQUIRE(ret, ...) \
  PF_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))
/// Runtime assertion that the calling thread holds the capability.
#define PF_ASSERT_CAPABILITY(x) \
  PF_THREAD_ANNOTATION_(assert_capability(x))
/// Function returns a reference to the given capability.
#define PF_RETURN_CAPABILITY(x) PF_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch for code the analysis cannot model; every use carries a
/// comment justifying why it is sound.
#define PF_NO_THREAD_SAFETY_ANALYSIS \
  PF_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace pf {

/// \brief std::mutex with a thread-safety capability attached, so fields
/// can be declared PF_GUARDED_BY it. Same cost as std::mutex; prefer the
/// RAII MutexLock over manual Lock/Unlock pairs.
class PF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PF_ACQUIRE() { mu_.lock(); }
  void Unlock() PF_RELEASE() { mu_.unlock(); }
  bool TryLock() PF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock over a pf::Mutex — the library's replacement for
/// std::lock_guard / std::unique_lock (both of which are invisible to the
/// analysis when used on a wrapped mutex).
class PF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PF_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PF_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with pf::Mutex. Wait atomically
/// releases the mutex and reacquires it before returning, exactly like
/// std::condition_variable::wait; spurious wakeups are possible, so every
/// wait site is a `while (!condition) cv.Wait(mu);` loop — which is also
/// the shape the thread-safety analysis can check (the condition reads its
/// guarded fields in the enclosing, capability-holding scope).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu`; may wake spuriously.
  void Wait(Mutex& mu) PF_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Ownership stays with the caller's MutexLock.
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pf

#endif  // PUFFERFISH_COMMON_THREAD_ANNOTATIONS_H_
