// gems::mvcc — epoch-versioned database snapshots (ROADMAP item 1).
//
// An epoch is an immutable copy of the execution context (catalog, CSR
// graph, subgraphs — all column/type payloads shared by shared_ptr, so a
// snapshot is a few map copies, not a data copy). Writers mutate the live
// context under exclusive access as before, then *publish*: the manager
// snapshots the new state and swaps the current-epoch pointer under a
// brief mutex. Readers, checkpoints and cluster state syncs *pin* an
// epoch (RAII EpochPin) and execute against it with zero further
// coordination — a writer can publish ten epochs while a long closure
// query runs; the reader keeps its pinned state alive and byte-stable.
//
// Lifecycle: build → publish → pin → retire → free. A superseded epoch
// with outstanding pins moves to the retired list and is freed only when
// its pin count drains to zero (deferred retirement — no use-after-free
// for a reader pinned across a publish). Memory bound: at most one epoch
// per concurrently pinned reader generation, each sharing all unmodified
// payloads with its neighbors via shared_ptr.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "exec/executor.hpp"
#include "plan/stats.hpp"

namespace gems::mvcc {

class EpochManager;

/// One immutable published database state. The context is fully formed
/// (planner installed, mutation hooks stripped) — the shared execution
/// path can run against it directly.
class GraphEpoch {
 public:
  std::uint64_t id() const noexcept { return id_; }
  const exec::ExecContext& ctx() const noexcept { return ctx_; }

  /// Planner statistics over this epoch's graph, computed lazily on first
  /// use and memoized for the epoch's lifetime (epochs are immutable, so
  /// the snapshot can never go stale). Publication adopts the previous
  /// epoch's stats when the graph is unchanged.
  std::shared_ptr<const plan::GraphStats> stats() const;

 private:
  friend class EpochManager;
  GraphEpoch() = default;

  std::uint64_t id_ = 0;
  exec::ExecContext ctx_;

  mutable sync::Mutex stats_mutex_;
  mutable std::shared_ptr<const plan::GraphStats> stats_
      GEMS_GUARDED_BY(stats_mutex_);
};

using EpochPtr = std::shared_ptr<const GraphEpoch>;

/// RAII pin on one epoch: the epoch (and everything it references) stays
/// alive and immutable until the pin is dropped. Move-only.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept { swap(other); }
  EpochPin& operator=(EpochPin&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  ~EpochPin() { release(); }

  bool valid() const noexcept { return epoch_ != nullptr; }
  const GraphEpoch& epoch() const noexcept { return *epoch_; }
  const exec::ExecContext& ctx() const noexcept { return epoch_->ctx(); }

  /// Drops the pin early (destructor otherwise).
  void release();

 private:
  friend class EpochManager;
  EpochPin(EpochManager* manager, std::shared_ptr<GraphEpoch> epoch,
           std::uint64_t pin_id)
      : manager_(manager), epoch_(std::move(epoch)), pin_id_(pin_id) {}
  void swap(EpochPin& other) noexcept {
    std::swap(manager_, other.manager_);
    std::swap(epoch_, other.epoch_);
    std::swap(pin_id_, other.pin_id_);
  }

  EpochManager* manager_ = nullptr;
  std::shared_ptr<GraphEpoch> epoch_;
  std::uint64_t pin_id_ = 0;
};

class EpochManager {
 public:
  /// Installed by the server layer: given a freshly snapshotted epoch,
  /// returns the planner hook its context should carry (capturing the
  /// epoch's own graph and memoized stats). May be empty (no planner).
  using PlannerFactory = std::function<
      std::function<exec::NetworkPlan(const exec::ConstraintNetwork&)>(
          const GraphEpoch&)>;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  void set_planner_factory(PlannerFactory factory) {
    sync::MutexLock lock(mutex_);
    planner_factory_ = std::move(factory);
  }

  /// Publishes a snapshot of `base` as the new current epoch. The caller
  /// must hold the database's exclusive access (the brief exclusive
  /// publication window) so `base` is quiescent during the copy. The
  /// superseded epoch retires if pinned, frees otherwise. Returns the new
  /// epoch's id.
  std::uint64_t publish(const exec::ExecContext& base);

  /// Pins the current epoch. Never blocks on writers (the manager mutex
  /// is held for pointer bookkeeping only).
  EpochPin pin();

  /// True once publish() has been called at least once.
  bool has_epoch() const;

  /// Epoch lifecycle and pin metrics (`mvcc.epochs.*`, `mvcc.pins.*`).
  /// Taken under the manager mutex, so one snapshot is consistent
  /// (`freed + live == published`).
  metrics::Snapshot metrics_snapshot() const;

 private:
  friend class EpochPin;
  void unpin(const GraphEpoch* epoch, std::uint64_t pin_id);
  /// Frees retired epochs whose pins drained. The REQUIRES annotation is
  /// the compiler-checked version of the old "call with mutex_ held"
  /// comment: forgetting the lock is now a clang error, not a race.
  void drain_locked() GEMS_REQUIRES(mutex_);
  /// Outstanding pins for `epoch` (absent entry = zero).
  std::uint64_t pin_count_locked(const GraphEpoch* epoch) const
      GEMS_REQUIRES(mutex_);

  mutable sync::Mutex mutex_;
  PlannerFactory planner_factory_ GEMS_GUARDED_BY(mutex_);
  std::shared_ptr<GraphEpoch> current_ GEMS_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<GraphEpoch>> retired_ GEMS_GUARDED_BY(mutex_);

  std::uint64_t next_epoch_id_ GEMS_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_pin_id_ GEMS_GUARDED_BY(mutex_) = 0;
  // pin id -> start time; ordered, so begin() is the oldest pin.
  std::map<std::uint64_t, std::chrono::steady_clock::time_point>
      outstanding_ GEMS_GUARDED_BY(mutex_);
  // Per-epoch outstanding pin counts. Lives here (not in GraphEpoch)
  // so the counter and the mutex that guards it share one owner — the
  // old in-epoch counter was "guarded by the owning manager's mutex",
  // a relationship the analysis cannot express or enforce.
  std::unordered_map<const GraphEpoch*, std::uint64_t> pin_counts_
      GEMS_GUARDED_BY(mutex_);

  // The counters and the peak are pushed under mutex_ as events happen;
  // the four gauges after the peak are set by metrics_snapshot() when read.
  // Registry locks are leaves, so they nest under mutex_.
  metrics::Registry metrics_;
  metrics::Counter& published_ = metrics_.counter("mvcc.epochs.published");
  // Superseded while still pinned.
  metrics::Counter& retired_count_ = metrics_.counter("mvcc.epochs.retired");
  // Retired epochs whose pins drained.
  metrics::Counter& freed_ = metrics_.counter("mvcc.epochs.freed");
  metrics::Counter& pins_taken_ = metrics_.counter("mvcc.pins.taken");
  metrics::Gauge& peak_pinned_ = metrics_.gauge("mvcc.pins.peak");
  // Current + still-pinned retired.
  metrics::Gauge& live_ = metrics_.gauge("mvcc.epochs.live");
  metrics::Gauge& current_id_ = metrics_.gauge("mvcc.epochs.current");
  metrics::Gauge& pinned_ = metrics_.gauge("mvcc.pins.outstanding");
  metrics::Gauge& oldest_pin_age_us_ =
      metrics_.gauge("mvcc.pins.oldest_age_us");
};

}  // namespace gems::mvcc
