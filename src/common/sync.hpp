// gems::sync — capability-annotated synchronization primitives.
//
// Every lock in the concurrency stack (the AccessGuard writer lock, epoch
// manager, wire metrics, coordinator routing state, thread pool, ...) is
// built on the wrappers below so Clang's Thread Safety Analysis can prove
// the lock discipline at compile time: which capability guards which field
// (GEMS_GUARDED_BY), which internal helpers may only run with a lock held
// (GEMS_REQUIRES), and the global acquisition order
// (GEMS_ACQUIRED_BEFORE/AFTER, checked under -Wthread-safety-beta). The
// rules used to live in comments — see DESIGN.md §5j for the full
// capability map — and were only caught when TSan happened to execute a
// violating interleaving; now a clang build refuses to compile them.
//
// On non-Clang compilers (and pre-TSA Clang) every macro expands to
// nothing and the wrappers are zero-cost veneers over the std primitives,
// so GCC/TSan/ASan builds are byte-for-byte the old behavior.
//
// Annotation cheat-sheet for new code:
//   sync::Mutex mu_;                      — a capability
//   int x_ GEMS_GUARDED_BY(mu_);          — reads/writes require mu_
//   T* p_ GEMS_PT_GUARDED_BY(mu_);        — *p_ requires mu_ (p_ itself not)
//   void f() GEMS_REQUIRES(mu_);          — caller must hold mu_ (the
//                                           `_locked`/`_unlocked` variants)
//   sync::Mutex a_ GEMS_ACQUIRED_BEFORE(b_); — lock order a_ → b_
//   { sync::MutexLock lock(mu_); ... }    — scoped acquisition
//   cv_.wait(mu_, pred);                  — condvar waits name their mutex
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---- Thread Safety Analysis attribute macros ------------------------------
//
// Gated on the attribute actually existing, not just on __clang__, so old
// clangs and every other compiler compile the annotations away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define GEMS_TSA(x) __attribute__((x))
#endif
#endif
#ifndef GEMS_TSA
#define GEMS_TSA(x)
#endif

/// Declares a class to be a lockable capability (mutexes, the AccessGuard).
#define GEMS_CAPABILITY(name) GEMS_TSA(capability(name))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define GEMS_SCOPED_CAPABILITY GEMS_TSA(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define GEMS_GUARDED_BY(x) GEMS_TSA(guarded_by(x))

/// Pointer member whose *pointee* is guarded (the pointer itself is not).
#define GEMS_PT_GUARDED_BY(x) GEMS_TSA(pt_guarded_by(x))

/// Lock-order edges, enforced under -Wthread-safety-beta: acquiring in the
/// opposite order is a compile error.
#define GEMS_ACQUIRED_BEFORE(...) GEMS_TSA(acquired_before(__VA_ARGS__))
#define GEMS_ACQUIRED_AFTER(...) GEMS_TSA(acquired_after(__VA_ARGS__))

/// The caller must already hold the capability. This is what turns
/// "only call this with the lock held" comments on `_locked` helpers into
/// compile-checked contracts.
#define GEMS_REQUIRES(...) GEMS_TSA(requires_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define GEMS_ACQUIRE(...) GEMS_TSA(acquire_capability(__VA_ARGS__))
#define GEMS_RELEASE(...) GEMS_TSA(release_capability(__VA_ARGS__))
#define GEMS_TRY_ACQUIRE(...) GEMS_TSA(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (deadlock prevention for
/// functions that acquire it themselves).
#define GEMS_EXCLUDES(...) GEMS_TSA(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held here (for runtime-verified
/// preconditions the static analysis cannot see, e.g. inside callbacks
/// that only ever run under the writer lock).
#define GEMS_ASSERT_CAPABILITY(x) GEMS_TSA(assert_capability(x))

/// The function returns a reference to the named capability.
#define GEMS_RETURN_CAPABILITY(x) GEMS_TSA(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment saying why the discipline cannot be expressed.
#define GEMS_NO_THREAD_SAFETY_ANALYSIS GEMS_TSA(no_thread_safety_analysis)

namespace gems::sync {

class CondVar;

/// A std::mutex the analysis can see. Same storage, same codegen; the
/// only addition is the capability attribute and annotated lock/unlock.
class GEMS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GEMS_ACQUIRE() { mutex_.lock(); }
  void unlock() GEMS_RELEASE() { mutex_.unlock(); }
  bool try_lock() GEMS_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// Scoped (RAII) holder on a sync::Mutex — the std::lock_guard /
/// std::unique_lock replacement the analysis understands. Supports the
/// unlock-work-relock shape of worker loops; the destructor releases only
/// if currently held (the documented scoped_lockable pattern).
class GEMS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GEMS_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() GEMS_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (to run work outside the critical section).
  void unlock() GEMS_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

  /// Re-acquires after an early unlock().
  void lock() GEMS_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

/// Condition variable whose waits name the mutex they release, so the
/// analysis knows the capability is (conceptually) held across the wait.
/// Wraps std::condition_variable on the Mutex's native handle — not
/// condition_variable_any — so the fast native-mutex path is kept.
///
/// Deliberately predicate-free: a predicate lambda is analyzed as its own
/// unannotated function, so `wait(lock, [&]{ return guarded_; })` would
/// defeat GUARDED_BY checking exactly where it matters. Call sites write
/// the standard explicit loop instead, which the analysis fully verifies:
///
///   sync::MutexLock lock(mutex_);
///   while (!guarded_condition_) cv_.wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Caller holds `mu` (typically via a MutexLock in scope); the wait
  /// atomically releases and re-acquires it.
  void wait(Mutex& mu) GEMS_REQUIRES(mu);

  /// Returns false when the wait timed out, true when notified (possibly
  /// spuriously) before `timeout` elapsed.
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      GEMS_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  /// Returns false when `deadline` passed, true when notified before it.
  template <typename Clock, typename Duration>
  bool wait_until(Mutex& mu,
                  std::chrono::time_point<Clock, Duration> deadline)
      GEMS_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace gems::sync
