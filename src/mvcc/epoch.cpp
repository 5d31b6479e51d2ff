#include "mvcc/epoch.hpp"

#include <utility>

namespace gems::mvcc {

std::shared_ptr<const plan::GraphStats> GraphEpoch::stats() const {
  sync::MutexLock lock(stats_mutex_);
  if (!stats_) {
    stats_ = std::make_shared<const plan::GraphStats>(
        plan::GraphStats::collect(ctx_.graph));
  }
  return stats_;
}

void EpochPin::release() {
  if (manager_ != nullptr) {
    manager_->unpin(epoch_.get(), pin_id_);
    manager_ = nullptr;
  }
  epoch_.reset();
}

std::uint64_t EpochManager::publish(const exec::ExecContext& base) {
  auto epoch = std::shared_ptr<GraphEpoch>(new GraphEpoch());
  epoch->ctx_ = base;
  // The snapshot is a pure read view: no durability hooks, no leftover
  // script parameters. Graph payloads (tables, types,
  // subgraph bitsets) are all shared_ptr — the copy is shallow.
  epoch->ctx_.on_mutation = nullptr;
  epoch->ctx_.on_graph_maintenance = nullptr;
  epoch->ctx_.params.clear();

  sync::MutexLock lock(mutex_);
  epoch->id_ = ++next_epoch_id_;
  if (planner_factory_) {
    // The closure captures the epoch raw — it is stored inside the epoch
    // itself, so it can never outlive what it points at (and holding a
    // shared_ptr instead would cycle).
    epoch->ctx_.planner = planner_factory_(*epoch);
  } else {
    epoch->ctx_.planner = nullptr;
  }
  if (current_ && current_->ctx_.graph_version == base.graph_version) {
    // Same graph (e.g. an overlay-only publication): adopt the previous
    // epoch's memoized planner stats instead of recollecting. Both stats
    // mutexes are taken (the new epoch's is private and uncontended, but
    // the guarded write still goes through its capability).
    sync::MutexLock stats_lock(current_->stats_mutex_);
    sync::MutexLock new_stats_lock(epoch->stats_mutex_);
    epoch->stats_ = current_->stats_;
  }
  if (current_) {
    if (pin_count_locked(current_.get()) > 0) {
      retired_.push_back(std::move(current_));
      retired_count_.add();
    } else {
      freed_.add();
    }
  }
  current_ = std::move(epoch);
  published_.add();
  drain_locked();
  return current_->id_;
}

EpochPin EpochManager::pin() {
  sync::MutexLock lock(mutex_);
  GEMS_CHECK(current_ != nullptr);
  pins_taken_.add();
  ++pin_counts_[current_.get()];
  const std::uint64_t pin_id = ++next_pin_id_;
  outstanding_.emplace(pin_id, std::chrono::steady_clock::now());
  if (outstanding_.size() > peak_pinned_.value()) {
    peak_pinned_.set(outstanding_.size());
  }
  return EpochPin(this, current_, pin_id);
}

bool EpochManager::has_epoch() const {
  sync::MutexLock lock(mutex_);
  return current_ != nullptr;
}

void EpochManager::unpin(const GraphEpoch* epoch, std::uint64_t pin_id) {
  sync::MutexLock lock(mutex_);
  outstanding_.erase(pin_id);
  auto it = pin_counts_.find(epoch);
  if (it != pin_counts_.end() && it->second > 0 && --it->second == 0) {
    pin_counts_.erase(it);
  }
  drain_locked();
}

std::uint64_t EpochManager::pin_count_locked(const GraphEpoch* epoch) const {
  auto it = pin_counts_.find(epoch);
  return it == pin_counts_.end() ? 0 : it->second;
}

void EpochManager::drain_locked() {
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (pin_count_locked(it->get()) == 0) {
      it = retired_.erase(it);
      freed_.add();
    } else {
      ++it;
    }
  }
}

metrics::Snapshot EpochManager::metrics_snapshot() const {
  sync::MutexLock lock(mutex_);
  live_.set((current_ != nullptr ? 1 : 0) + retired_.size());
  current_id_.set(current_ != nullptr ? current_->id_ : 0);
  pinned_.set(outstanding_.size());
  oldest_pin_age_us_.set(
      outstanding_.empty()
          ? 0
          : static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() -
                    outstanding_.begin()->second)
                    .count()));
  return metrics_.snapshot();
}

}  // namespace gems::mvcc
