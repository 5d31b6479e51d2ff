// Fixed-size worker pool used for intra-node parallel operators and for the
// multi-statement scheduler (Sec. III-B1). The simulated cluster in
// src/dist uses dedicated per-rank threads instead, because ranks are
// long-lived peers, not tasks.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace gems {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// The pool whose worker thread is calling, nullptr on any other thread.
  /// A task that waits on futures of its own pool deadlocks it once every
  /// worker waits, so fan-out code checks this before it submits and waits.
  static ThreadPool* current() noexcept;
  /// The calling worker's index in [0, size()) of current(); 0 on any
  /// other thread. Lets a task pick per-worker scratch state.
  static std::size_t current_worker() noexcept;

  /// Enqueues a task; the returned future reports completion/exceptions.
  template <typename Fn>
  std::future<void> submit(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<Fn>(fn));
    std::future<void> future = task->get_future();
    {
      sync::MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is chunked to keep per-task overhead low.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(chunk, begin, end) for `num_chunks` contiguous ranges that
  /// partition [0, n), and waits for completion. Chunk boundaries are a
  /// deterministic function of (n, num_chunks) alone, so callers can give
  /// every chunk a private output shard and merge in chunk order — the
  /// shape behind the matcher's sharded frontier expansion. Trailing
  /// chunks may be empty (fn is not called for them).
  void parallel_for_ranges(
      std::size_t n, std::size_t num_chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(std::size_t index);

  sync::Mutex mutex_;
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ GEMS_GUARDED_BY(mutex_);
  bool stop_ GEMS_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Pool sized to the hardware, shared by operators that do not need
/// isolation. Lazily constructed.
ThreadPool& default_thread_pool();

}  // namespace gems
