// Fixed-size worker pool: the net server's request workers, the
// multi-statement scheduler (Sec. III-B1) and the pooled graph rebuild.
// The simulated cluster in src/dist uses dedicated per-rank threads
// instead, because ranks are long-lived peers, not tasks.
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
