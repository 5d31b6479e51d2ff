// Tests for the large-array rule (DESIGN.md §5m, "Large arrays"):
// large_array_resource() maps requests of kPageMapBytes or more itself and
// sends smaller ones to the heap, and a whole server life cycle (populate,
// the query mix, ingest folds, checkpoint, recovery) never hands malloc a
// large block to free, so glibc's mmap threshold stays at its floor. And
// the pooled graph rebuild frees each type's scratch as that type is
// built, so after populating the peak resident set (VmHWM) is within a
// few MiB of the resident set (DESIGN.md §5n).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "common/large_array.hpp"
#include "common/metrics.hpp"
#include "common/scratch_arena.hpp"
#include "server/database.hpp"
#include "storage/type.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GEMS_MEMORY_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GEMS_MEMORY_TEST_SANITIZED 1
#endif
#endif

namespace gems {
namespace {

namespace fs = std::filesystem;

// ---- large_array_resource() -------------------------------------------------

TEST(LargeArrayResourceTest, SmallRequestsGoToTheHeap) {
  std::pmr::memory_resource* r = large_array_resource();
  const std::size_t before = large_array_mapped_bytes();
  void* p = r->allocate(kPageMapBytes - 1, alignof(std::max_align_t));
  EXPECT_EQ(large_array_mapped_bytes(), before);
  std::memset(p, 0xab, kPageMapBytes - 1);
  r->deallocate(p, kPageMapBytes - 1, alignof(std::max_align_t));
  EXPECT_EQ(large_array_mapped_bytes(), before);
}

TEST(LargeArrayResourceTest, LargeRequestsAreMappedAndUnmapped) {
  std::pmr::memory_resource* r = large_array_resource();
  const std::size_t before = large_array_mapped_bytes();
  for (const std::size_t bytes :
       {kPageMapBytes, kPageMapBytes + 1, std::size_t{3} << 20}) {
    SCOPED_TRACE(bytes);
    auto* p = static_cast<unsigned char*>(r->allocate(bytes, 8));
    EXPECT_EQ(large_array_mapped_bytes(), before + page_round_up(bytes));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPageBytes, 0u);
    // Fresh anonymous pages read as zero.
    EXPECT_EQ(p[0], 0);
    EXPECT_EQ(p[bytes - 1], 0);
    std::memset(p, 0x5a, bytes);
    r->deallocate(p, bytes, 8);
    EXPECT_EQ(large_array_mapped_bytes(), before);
  }
}

TEST(LargeArrayResourceTest, AlignmentHolds) {
  std::pmr::memory_resource* r = large_array_resource();
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{100},
                                  kPageMapBytes - 64, kPageMapBytes,
                                  kPageMapBytes * 3 + 5}) {
    for (const std::size_t align : {std::size_t{1}, std::size_t{8},
                                    std::size_t{16}, std::size_t{64},
                                    std::size_t{256}, kPageBytes}) {
      SCOPED_TRACE(std::to_string(bytes) + " bytes at " +
                   std::to_string(align));
      void* p = r->allocate(bytes, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
      r->deallocate(p, bytes, align);
    }
  }
}

TEST(LargeArrayResourceTest, FourThreadsAllocateAndFreeConcurrently) {
  std::pmr::memory_resource* r = large_array_resource();
  const std::size_t before = large_array_mapped_bytes();
  std::vector<std::thread> threads;
  std::vector<int> bad(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([r, t, &bad] {
      std::vector<std::pair<unsigned char*, std::size_t>> live;
      for (int i = 0; i < 200; ++i) {
        // Alternate small and large sizes, each thread its own pattern.
        const std::size_t bytes =
            (i % 3 == 0 ? kPageMapBytes : 64) + 4096 * (i % 7) + t;
        auto* p = static_cast<unsigned char*>(r->allocate(bytes, 8));
        std::memset(p, t + 1, bytes);
        live.emplace_back(p, bytes);
        if (live.size() > 8) {
          auto [q, n] = live.front();
          if (q[0] != t + 1 || q[n - 1] != t + 1) ++bad[t];
          r->deallocate(q, n, 8);
          live.erase(live.begin());
        }
      }
      for (auto [q, n] : live) {
        if (q[0] != t + 1 || q[n - 1] != t + 1) ++bad[t];
        r->deallocate(q, n, 8);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad, std::vector<int>(4, 0));
  EXPECT_EQ(large_array_mapped_bytes(), before);
}

// ---- Gauges -------------------------------------------------------------------

TEST(MemoryGaugesTest, ReportMappedAndScratchBytes) {
  auto made =
      bsbm::make_populated_database(bsbm::GeneratorConfig::derive(2000, 3));
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  const metrics::Snapshot m = (*made)->metrics_snapshot();
  // The string pool's index alone is past kPageMapBytes at this scale.
  EXPECT_GT(metrics::value(m, "memory.mapped.bytes"), 0u);
  EXPECT_EQ(metrics::value(m, "memory.mapped.bytes"),
            large_array_mapped_bytes());
  EXPECT_EQ(metrics::value(m, "memory.scratch.bytes"),
            ScratchArena::live_mapped_bytes());
}

// ---- The resident census ------------------------------------------------------

// Each structure gauge is a function of the database's contents alone
// (DESIGN.md §5l, §5m), so Berlin at scale 2000 gives the same bytes on
// every run, build type and worker count. A layout change moves its own
// line here on purpose, and only that line.
TEST(ResidentCensusTest, BerlinScale2000) {
  auto made =
      bsbm::make_populated_database(bsbm::GeneratorConfig::derive(2000));
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  const metrics::Snapshot m = (*made)->metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "storage.pool.bytes"), 511976u);
  EXPECT_EQ(metrics::value(m, "storage.tables.bytes"), 572324u);
  EXPECT_EQ(metrics::value(m, "graph.csr.bytes"), 220556u);
  EXPECT_EQ(metrics::value(m, "graph.key_index.bytes"), 238848u);
  EXPECT_EQ(metrics::value(m, "graph.endpoints.bytes"), 99736u);
  EXPECT_EQ(metrics::value(m, "graph.vertex_rows.bytes"), 2576u);
}

// ---- The malloc threshold over a server life cycle --------------------------

/// Writes `n` Berlin review rows, ids from `first`, to `dir`/`name` and
/// returns the ingest statement.
std::string review_batch(const fs::path& dir, const std::string& name,
                         const bsbm::GeneratorConfig& config,
                         std::size_t first, std::size_t n) {
  std::ofstream csv(dir / name);
  for (std::size_t k = 0; k < n; ++k) {
    csv << "r" << first + k << ",Review,"
        << bsbm::product_id((first + 7 * k) % config.num_products) << ","
        << bsbm::person_id((first + 3 * k) % config.num_persons)
        << ",2008-03-01,T1,txt," << k % 10 << ",,3,4,gen,2008-04-02\n";
  }
  return "ingest table Reviews '" + name + "'";
}

#if defined(__GLIBC__)
/// A 256 KiB malloc block, and whether malloc mapped it: true while its
/// mmap threshold has stayed below that. The caller frees the block last,
/// since freeing a mapped block is what raises the threshold.
std::pair<void*, bool> malloc_256k() {
  const std::size_t before = mallinfo2().hblks;
  void* volatile p = std::malloc(std::size_t{256} << 10);
  return {p, mallinfo2().hblks > before};
}
#endif

/// The life cycle, run in a fresh child process: a threshold, once
/// raised, never comes back down within a process. The exit code says
/// which step failed.
[[maybe_unused]] int run_life_cycle(const fs::path& dir) {
#if defined(__GLIBC__)
  const auto [first_probe, first_mapped] = malloc_256k();
  if (!first_mapped) {
    std::cerr << "malloc's threshold was raised before the test began\n";
    return 2;
  }
  const bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(2000, 7);
  server::DatabaseOptions options;
  options.data_dir = dir.string();
  options.store_dir = (dir / "store").string();
  options.wal_fsync = false;
  relational::ParamMap params;
  params.emplace("Country1", storage::Value::varchar("US"));
  params.emplace("Country2", storage::Value::varchar("DE"));
  params.emplace("Product1", storage::Value::varchar("p0"));
  params.emplace("Type1", storage::Value::varchar("t1"));
  params.emplace("Producer1", storage::Value::varchar("pr0"));
  params.emplace("Date1",
                 storage::Value::date(storage::civil_to_days(2008, 6, 15)));
  {
    // 1. Populate.
    auto made = bsbm::make_populated_database(config, options);
    if (!made.is_ok()) {
      std::cerr << made.status().to_string() << "\n";
      return 3;
    }
    server::Database& db = **made;
    // 2. The query mix.
    for (const bsbm::NamedQuery& q : bsbm::all_queries()) {
      auto r = db.run_script(q.text, params);
      if (!r.is_ok()) {
        std::cerr << q.name << ": " << r.status().to_string() << "\n";
        return 4;
      }
    }
    // 3. Ingest until both a CSR base and a key-index base have folded.
    for (std::size_t b = 0;; ++b) {
      const metrics::Snapshot m = db.metrics_snapshot();
      if (metrics::value(m, "graph.csr.folds") > 0 &&
          metrics::value(m, "graph.key_index.folds") > 0) {
        break;
      }
      if (b == 40) {
        std::cerr << "no fold after " << b << " ingests\n";
        return 5;
      }
      auto r = db.run_script(review_batch(
          dir, "r" + std::to_string(b) + ".csv", config, 900000 + 100 * b,
          100));
      if (!r.is_ok()) {
        std::cerr << r.status().to_string() << "\n";
        return 6;
      }
    }
    // 4. Checkpoint.
    const Status s = db.checkpoint();
    if (!s.is_ok()) {
      std::cerr << s.to_string() << "\n";
      return 7;
    }
  }
  // 4. Recover: opening the store reads the snapshot and the WAL.
  server::Database db(options);
  if (!db.store_status().is_ok()) {
    std::cerr << db.store_status().to_string() << "\n";
    return 8;
  }
  auto r = db.run_script(bsbm::berlin_q1(), params);
  if (!r.is_ok()) {
    std::cerr << r.status().to_string() << "\n";
    return 9;
  }
  // 5. malloc still maps a large request. The recovered database stays
  // alive, as a server's would: freeing it first would leave heap holes
  // large enough to serve the probe whatever the threshold.
  const auto [probe, mapped] = malloc_256k();
  std::free(probe);
  std::free(first_probe);
  if (!mapped) {
    std::cerr << "a 256 KiB malloc came from the heap: a freed malloc-mapped "
                 "block raised glibc's mmap threshold\n";
    return 1;
  }
  return 0;
#else
  (void)dir;
  return 0;
#endif
}

TEST(MallocThresholdTest, StaysAtFloorThroughSetupQueriesFoldsAndRecovery) {
#if defined(GEMS_MEMORY_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer allocators replace malloc; glibc's threshold "
                  "is not in play";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "the mmap threshold checked here is glibc's";
#else
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("gems_memory_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // threadsafe: the child re-executes this binary, so it starts with a
  // fresh malloc state whatever tests ran before in this process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::exit(run_life_cycle(dir)), ::testing::ExitedWithCode(0),
              "");
  fs::remove_all(dir);
#endif
}

// ---- The set-up peak ----------------------------------------------------------

/// A /proc/self/status field in KiB ("VmRSS", "VmHWM"); -1 when absent.
long proc_status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atol(line.c_str() + field.size() + 1);
    }
  }
  return -1;
}

/// Populates Berlin at scale 20000 with four rebuild workers, in a fresh
/// child process so that no earlier test has raised the peak. The exit
/// code says which step failed.
[[maybe_unused]] int run_setup_peak() {
  server::DatabaseOptions options;
  options.intra_node_threads = 4;
  auto made = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(20000, 1), options);
  if (!made.is_ok()) {
    std::cerr << made.status().to_string() << "\n";
    return 3;
  }
  const long hwm = proc_status_kib("VmHWM");
  const long rss = proc_status_kib("VmRSS");
  if (hwm < 0 || rss < 0) {
    std::cerr << "no VmHWM/VmRSS in /proc/self/status\n";
    return 2;
  }
  if (hwm - rss > 5 * 1024) {
    std::cerr << "set-up peak " << hwm << " KiB is " << hwm - rss
              << " KiB above resident " << rss << " KiB\n";
    return 1;
  }
  return 0;
}

TEST(SetupPeakTest, PopulateLeavesPeakWithinFiveMiBOfResident) {
#if defined(GEMS_MEMORY_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer allocators keep freed memory in quarantine "
                  "and add shadow pages";
#elif !defined(__linux__)
  GTEST_SKIP() << "reads VmHWM and VmRSS from /proc/self/status";
#else
  // threadsafe: the child re-executes this binary, so its peak is this
  // test's alone.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::exit(run_setup_peak()), ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace gems
