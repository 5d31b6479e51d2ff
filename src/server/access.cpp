#include "server/access.hpp"

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

void AccessGuard::lock() {
  const Clock::time_point requested = Clock::now();
  waiting_.fetch_add(1);
  mutex_.lock();
  held_.store(true);
  waiting_.fetch_sub(1);
  acquired_at_ = Clock::now();
  wait_us_.add(elapsed_us(requested, acquired_at_));
  acquired_.add();
}

void AccessGuard::unlock() {
  held_us_.add(elapsed_us(acquired_at_, Clock::now()));
  held_.store(false);
  mutex_.unlock();
}

void AccessGuard::assert_exclusive_held() const {
  // held_ is set before waiting_ drops, so a queued writer is never
  // mistaken for quiescence while the lock changes hands.
  GEMS_CHECK(held_.load() || waiting_.load() == 0);
}

}  // namespace gems::server
