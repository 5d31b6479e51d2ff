// The database's writer lock: mutating scripts, catalog commits of
// read-only scripts' `into` results, checkpoint capture windows and epoch refreshes
// hold it. Read paths never take it — they pin an immutable MVCC epoch
// (mvcc/epoch.hpp, DESIGN.md §5i), which is what makes DDL and ingest
// atomic with respect to later queries.
//
// The guard meters itself into the database's metrics registry:
// acquisitions, time spent blocked waiting for the lock and time spent
// holding it (`access.writer.*`).
//
// Lock order (see DESIGN.md §5j): the access guard is always the
// *outermost* database lock; `stats_mutex_` and `wal_mutex_` are only
// ever taken while it is held, and never the other way around. That
// order is encoded with GEMS_ACQUIRED_BEFORE in database.hpp so clang's
// thread safety analysis rejects inversions at compile time.
//
// AccessGuard itself is a GEMS_CAPABILITY: members the guard protects
// can be declared GEMS_GUARDED_BY(access_), functions that require it
// held GEMS_REQUIRES(access_). Acquisition goes through the scoped
// ExclusiveAccessLock — there is no movable hold object, because the
// analysis cannot track capabilities through moves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/metrics.hpp"
#include "common/sync.hpp"

namespace gems::server {

/// A sync::Mutex with wait/hold-time accounting and a runtime-checked
/// "held" assertion.
class GEMS_CAPABILITY("AccessGuard") AccessGuard {
 public:
  /// Registers `access.writer.{acquired,wait_us,held_us}` in `registry`,
  /// which must outlive the guard.
  explicit AccessGuard(metrics::Registry& registry)
      : acquired_(registry.counter("access.writer.acquired")),
        wait_us_(registry.counter("access.writer.wait_us")),
        held_us_(registry.counter("access.writer.held_us")) {}
  AccessGuard(const AccessGuard&) = delete;
  AccessGuard& operator=(const AccessGuard&) = delete;

  /// Blocks until the caller is the sole writer. Prefer
  /// ExclusiveAccessLock.
  void lock() GEMS_ACQUIRE();
  void unlock() GEMS_RELEASE();

  /// Runtime-verified assertion that the guarded state is not being
  /// written concurrently: either some thread holds the lock, or nobody
  /// holds or waits for it (the documented single-threaded tooling mode
  /// that drives `Database::context()` directly). For closures (planner
  /// hooks, mutation callbacks) that run under the lock but where the
  /// analysis cannot see the caller's capability across the
  /// std::function boundary. Not an owner-thread check: the guard records
  /// that the lock is held, not by whom. Its one caller, the writer's
  /// planner hook, runs on the thread that took the lock, because a
  /// script's statements run in order on that thread
  /// (plan::run_scheduled).
  void assert_exclusive_held() const GEMS_ASSERT_CAPABILITY(this);

 private:
  sync::Mutex mutex_;
  // Holder state for assert_exclusive_held(), readable from any thread.
  std::atomic<bool> held_{false};
  std::atomic<std::uint64_t> waiting_{0};
  std::chrono::steady_clock::time_point acquired_at_
      GEMS_GUARDED_BY(mutex_){};

  metrics::Counter& acquired_;
  metrics::Counter& wait_us_;  // total time blocked acquiring
  metrics::Counter& held_us_;  // total time held
};

/// Scoped exclusive hold on an AccessGuard.
class GEMS_SCOPED_CAPABILITY [[nodiscard]] ExclusiveAccessLock {
 public:
  explicit ExclusiveAccessLock(AccessGuard& guard) GEMS_ACQUIRE(guard)
      : guard_(guard) {
    guard_.lock();
  }
  ~ExclusiveAccessLock() GEMS_RELEASE() { guard_.unlock(); }

  ExclusiveAccessLock(const ExclusiveAccessLock&) = delete;
  ExclusiveAccessLock& operator=(const ExclusiveAccessLock&) = delete;

 private:
  AccessGuard& guard_;
};

}  // namespace gems::server
