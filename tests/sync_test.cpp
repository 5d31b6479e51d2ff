// Positive runtime tests for gems::sync and the AccessGuard writer lock
// built on it. The negative side — code that must NOT compile — lives in
// tests/sync_negative/ and only runs under clang; these tests run under
// every compiler (and are the intended TSan workload for the layer).
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "server/access.hpp"

namespace gems {
namespace {

using server::AccessGuard;
using server::ExclusiveAccessLock;

TEST(SyncMutex, GuardsCounterAcrossThreads) {
  sync::Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        sync::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  sync::MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutexLock, EarlyUnlockAndRelock) {
  sync::Mutex mu;
  sync::MutexLock lock(mu);
  lock.unlock();
  EXPECT_TRUE(mu.try_lock());  // provably released
  mu.unlock();
  lock.lock();  // destructor releases the re-acquired hold
}

TEST(SyncCondVar, ExplicitLoopWakesOnNotify) {
  sync::Mutex mu;
  sync::CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread waiter([&] {
    sync::MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    observed = 1;
  });
  {
    sync::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(SyncCondVar, WaitForReportsTimeout) {
  sync::Mutex mu;
  sync::CondVar cv;
  sync::MutexLock lock(mu);
  // Nobody notifies: the wait must come back with `false` (timed out)
  // and the mutex re-held (destructor unlock would abort otherwise).
  EXPECT_FALSE(cv.wait_for(mu, std::chrono::milliseconds(5)));
}

TEST(SyncCondVar, WaitUntilHonorsDeadline) {
  sync::Mutex mu;
  sync::CondVar cv;
  sync::MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(cv.wait_until(mu, deadline));
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(AccessGuardTest, ExclusiveExcludesEverything) {
  metrics::Registry registry;
  AccessGuard guard(registry);
  constexpr int kWriters = 4;
  constexpr int kRounds = 200;
  std::atomic<int> inside{0};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const ExclusiveAccessLock lock(guard);
        guard.assert_exclusive_held();
        if (inside.fetch_add(1) != 0) violations.fetch_add(1);
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(metrics::value(registry.snapshot(), "access.writer.acquired"),
            static_cast<std::uint64_t>(kWriters * kRounds));
}

TEST(AccessGuardTest, MetricsMeterWaitAndHold) {
  metrics::Registry registry;
  AccessGuard guard(registry);
  std::atomic<bool> holder_in{false};
  std::thread holder([&] {
    const ExclusiveAccessLock lock(guard);
    holder_in.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!holder_in.load()) std::this_thread::yield();
  {
    // Queues behind the holder for most of its 20 ms hold.
    const ExclusiveAccessLock lock(guard);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  holder.join();
  const metrics::Snapshot snap = registry.snapshot();
  EXPECT_EQ(metrics::value(snap, "access.writer.acquired"), 2u);
  EXPECT_GE(metrics::value(snap, "access.writer.wait_us"), 4000u);
  EXPECT_GE(metrics::value(snap, "access.writer.held_us"), 20000u);
  EXPECT_NE(metrics::render(snap).find("access.writer.acquired  2\n"),
            std::string::npos);
}

TEST(AccessGuardTest, AssertHeldAcceptsAnyHolderThread) {
  // The assertion records that the lock is held, not by whom: a thread
  // other than the holder passes it too. Writer scripts call it on the
  // holder's own thread; this pins the documented contract.
  metrics::Registry registry;
  AccessGuard guard(registry);
  const ExclusiveAccessLock lock(guard);
  std::thread hook([&] { guard.assert_exclusive_held(); });
  hook.join();
}

TEST(AccessGuardTest, AssertHeldAcceptsQuiescentGuard) {
  // Single-threaded tooling drives the live context without the lock,
  // both before any writer ran and after the last one left.
  metrics::Registry registry;
  AccessGuard fresh(registry);
  fresh.assert_exclusive_held();
  AccessGuard used(registry);
  { const ExclusiveAccessLock lock(used); }
  used.assert_exclusive_held();
}

}  // namespace
}  // namespace gems
