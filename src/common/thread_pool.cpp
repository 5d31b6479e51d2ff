#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gems {

namespace {

thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

}  // namespace

ThreadPool* ThreadPool::current() noexcept { return tls_pool; }

std::size_t ThreadPool::current_worker() noexcept { return tls_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  GEMS_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ was set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace gems
