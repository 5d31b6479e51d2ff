// gems::mvcc benchmarks (experiment E-MVCC, see EXPERIMENTS.md):
//
//   1. Reader latency under concurrent writers — a full-graph match query
//      timed while 0 / 1 / 4 writer threads continuously ingest batches
//      (each ingest publishes a fresh epoch). With epoch pinning the
//      reader never waits on the writer lock, so p50/p99 should stay flat
//      as writers are added; before gems::mvcc readers queued behind every
//      ingest's exclusive window.
//
//   2. Ingest maintenance, incremental delta vs. full rebuild — a batch
//      ingest (which maintains the graph by the delta) against
//      ExecContext::rebuild_graph() of the same grown state, timed
//      directly on a copy of the pinned context. The delta path scales
//      with the batch, the rebuild path with the whole graph;
//      per-maintenance nanoseconds come from the ingest metrics
//      (mvcc.ingest.delta_ns) and from timing the rebuild.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "server/database.hpp"

namespace gems::bench {
namespace {

namespace fs = std::filesystem;

constexpr int kSeedPeople = 20000;
constexpr int kSeedKnows = 40000;
constexpr int kBatchRows = 1000;

const char kDdl[] = R"(
  create table People(name varchar(24), age integer)
  create table Knows(src varchar(24), dst varchar(24))
  create vertex Person(name) from table People
  create edge knows with vertices (Person as A, Person as B)
    from table Knows
    where Knows.src = A.name and Knows.dst = B.name
)";

const char kReaderQuery[] =
    "select A.name, B.name as friend from graph def A: Person() "
    "--knows--> def B: Person()";

std::string scratch_dir() {
  static const std::string dir = [] {
    std::string d = (fs::temp_directory_path() / "gems_bench_mvcc").string();
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  GEMS_CHECK_MSG(out.good(), path.c_str());
}

/// Deterministic seed graph: kSeedPeople vertices, kSeedKnows edges (a
/// fixed-stride ring, so every run matches the same result set).
void write_seed_csvs(const std::string& dir) {
  std::ostringstream people;
  for (int i = 0; i < kSeedPeople; ++i) {
    people << "p" << i << "," << (18 + i % 60) << "\n";
  }
  write_file(dir + "/people.csv", people.str());
  std::ostringstream knows;
  for (int i = 0; i < kSeedKnows; ++i) {
    const int a = i % kSeedPeople;
    const int b = (a + 1 + i % 97) % kSeedPeople;
    knows << "p" << a << ",p" << b << "\n";
  }
  write_file(dir + "/knows.csv", knows.str());
}

/// A batch of fresh people with globally unique names (the incremental
/// path must never hit a key collision, which would force a rebuild).
std::string write_batch_csv(const std::string& dir, std::uint64_t serial) {
  std::ostringstream text;
  for (int i = 0; i < kBatchRows; ++i) {
    text << "w" << serial << "_" << i << "," << (20 + i % 50) << "\n";
  }
  const std::string name = "batch_" + std::to_string(serial) + ".csv";
  write_file(dir + "/" + name, text.str());
  return name;
}

std::unique_ptr<server::Database> make_db() {
  const std::string dir = scratch_dir();
  write_seed_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir;
  auto db = std::make_unique<server::Database>(options);
  auto r = db->run_script(kDdl);
  GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
  r = db->run_script(
      "ingest table People 'people.csv'\n"
      "ingest table Knows 'knows.csv'\n");
  GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
  return db;
}

std::uint64_t percentile_us(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// Match-query latency with `state.range(0)` concurrent writer threads,
/// each looping batch ingests (every one a fresh epoch publication).
void BM_ReaderLatencyUnderWriters(benchmark::State& state) {
  const int num_writers = static_cast<int>(state.range(0));
  auto db = make_db();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batch_serial{0};
  std::atomic<std::uint64_t> batches_ingested{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(num_writers));
  for (int w = 0; w < num_writers; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string csv =
            write_batch_csv(scratch_dir(), batch_serial.fetch_add(1));
        auto r = db->run_script("ingest table People '" + csv + "'");
        GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
        batches_ingested.fetch_add(1);
      }
    });
  }

  std::vector<std::uint64_t> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto r = db->run_script(kReaderQuery);
    const auto end = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    benchmark::DoNotOptimize(r->back().table);
    latencies_us.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count()));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();

  const metrics::Snapshot m = db->metrics_snapshot();
  state.counters["writers"] = static_cast<double>(num_writers);
  state.counters["p50_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.50));
  state.counters["p99_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.99));
  state.counters["epochs_published"] =
      static_cast<double>(metrics::value(m, "mvcc.epochs.published"));
  state.counters["batches_ingested"] =
      static_cast<double>(batches_ingested.load());
}
BENCHMARK(BM_ReaderLatencyUnderWriters)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One batch ingest per iteration, timed whole (Arg 1: the graph is
/// maintained by the delta), or the full rebuild of the grown graph (Arg
/// 0: the batch is ingested untimed, then rebuild_graph() runs on a copy
/// of the pinned context). The CSV is written outside the timed region.
void BM_IngestMaintenance(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  auto db = make_db();
  std::uint64_t serial = 1u << 20;  // distinct from the reader bench names
  auto ingest = [&db](const std::string& csv) {
    auto r = db->run_script("ingest table People '" + csv + "'");
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
  };

  exec::ExecContext rebuilt;  // reassigned untimed, so freed untimed
  std::uint64_t rebuild_ns = 0;
  std::uint64_t rebuilds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string csv = write_batch_csv(scratch_dir(), serial++);
    if (!incremental) {
      ingest(csv);
      rebuilt = db->pin_epoch().ctx();
      rebuilt.planner = nullptr;  // points into the pinned epoch
    }
    state.ResumeTiming();
    if (incremental) {
      ingest(csv);
      continue;
    }
    const Timer timer;
    const Status s = rebuilt.rebuild_graph();
    rebuild_ns += static_cast<std::uint64_t>(timer.elapsed_seconds() * 1e9);
    ++rebuilds;
    GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  }

  const metrics::Snapshot m = db->metrics_snapshot();
  const std::uint64_t delta = metrics::value(m, "mvcc.ingest.delta");
  state.counters["incremental"] = incremental ? 1 : 0;
  state.counters["delta_ingests"] = static_cast<double>(delta);
  state.counters["full_rebuilds"] = static_cast<double>(
      metrics::value(m, "mvcc.ingest.rebuild") + rebuilds);
  if (!incremental && rebuilds > 0) {
    state.counters["maintain_ns_per_ingest"] =
        static_cast<double>(rebuild_ns / rebuilds);
  } else if (delta > 0) {
    state.counters["maintain_ns_per_ingest"] = static_cast<double>(
        metrics::value(m, "mvcc.ingest.delta_ns") / delta);
  }
}
BENCHMARK(BM_IngestMaintenance)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
