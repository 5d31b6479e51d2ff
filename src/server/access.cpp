#include "server/access.hpp"

#include <sstream>

#include "common/check.hpp"

namespace gems::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

std::string AccessMetricsSnapshot::to_string() const {
  auto avg = [](std::uint64_t total_us, std::uint64_t n) {
    return n == 0 ? 0ull : total_us / n;
  };
  std::ostringstream out;
  out << "access  exclusive: " << exclusive_acquired
      << " acquisitions, avg wait "
      << avg(exclusive_wait_us, exclusive_acquired) << " us, avg hold "
      << avg(exclusive_held_us, exclusive_acquired) << " us\n";
  return out.str();
}

void AccessGuard::lock() {
  const Clock::time_point requested = Clock::now();
  waiting_.fetch_add(1);
  mutex_.lock();
  held_.store(true);
  waiting_.fetch_sub(1);
  acquired_at_ = Clock::now();
  wait_us_.fetch_add(elapsed_us(requested, acquired_at_),
                     std::memory_order_relaxed);
  acquired_.fetch_add(1, std::memory_order_relaxed);
}

void AccessGuard::unlock() {
  held_us_.fetch_add(elapsed_us(acquired_at_, Clock::now()),
                     std::memory_order_relaxed);
  held_.store(false);
  mutex_.unlock();
}

void AccessGuard::assert_exclusive_held() const {
  // held_ is set before waiting_ drops, so a queued writer is never
  // mistaken for quiescence while the lock changes hands.
  GEMS_CHECK(held_.load() || waiting_.load() == 0);
}

AccessMetricsSnapshot AccessGuard::snapshot() const {
  AccessMetricsSnapshot snap;
  snap.exclusive_acquired = acquired_.load(std::memory_order_relaxed);
  snap.exclusive_wait_us = wait_us_.load(std::memory_order_relaxed);
  snap.exclusive_held_us = held_us_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace gems::server
