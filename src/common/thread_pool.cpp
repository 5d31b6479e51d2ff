#include "common/thread_pool.hpp"

#include "common/check.hpp"

namespace gems {

namespace {

thread_local ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool* ThreadPool::current() noexcept { return tls_pool; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  GEMS_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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

void ThreadPool::worker_loop() {
  tls_pool = this;
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

}  // namespace gems
