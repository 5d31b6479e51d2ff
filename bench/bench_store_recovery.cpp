// E-STORE — durability costs and recovery speed (gems::store):
//   * CRC-32 throughput, the checksum every snapshot, WAL record and GBSP
//     frame goes through (E-CRC),
//   * snapshot encode (in memory) / checkpoint (streamed to disk) / decode
//     throughput (MB/s) on the Berlin dataset; checkpoint and decode also
//     at scale 20000, the durable end-to-end workload's image. Decode
//     includes the serial graph build over the decoded tables,
//   * WAL append latency (p50/p99 from the store's own histogram), with
//     and without fsync,
//   * cold recovery (open a checkpointed data dir) vs. re-ingesting the
//     same dataset from CSV — the paper-level claim is that restart cost
//     drops from "re-run the whole load" to "deserialize at I/O speed",
//   * WAL replay: the ingest records written after the last checkpoint,
//     decoded, appended and folded into the graph on open.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/crc32.hpp"
#include "common/prng.hpp"
#include "storage/csv.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"

namespace gems::bench {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("gems_bench_store_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A checkpointed durable data directory for `scale`, built once per
/// process (the cold-recovery benchmark reopens it repeatedly).
const std::string& checkpointed_dir(std::size_t scale) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const std::string dir = scratch_dir("ckpt_" + std::to_string(scale));
    server::DatabaseOptions options;
    options.store_dir = dir;
    options.wal_fsync = false;
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(scale), std::move(options));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    GEMS_CHECK((*db)->checkpoint().is_ok());
    it = cache.emplace(scale, dir).first;
  }
  return it->second;
}

/// CSV exports of the Berlin dataset for `scale` (the re-ingest baseline).
const std::string& csv_dir(std::size_t scale) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const std::string dir = scratch_dir("csv_" + std::to_string(scale));
    GEMS_CHECK(bsbm::write_csv_files(berlin_db(scale), dir).is_ok());
    it = cache.emplace(scale, dir).first;
  }
  return it->second;
}

/// CRC-32 over `bytes` of random data: 4 KiB stays in L1/L2, 32 MiB is a
/// scale-20000 snapshot image streamed from memory.
void BM_Crc32(benchmark::State& state, std::size_t bytes) {
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK_CAPTURE(BM_Crc32, 4KiB, std::size_t{4} << 10);
BENCHMARK_CAPTURE(BM_Crc32, 1MiB, std::size_t{1} << 20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Crc32, 32MiB, std::size_t{32} << 20)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotEncode(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto image = store::encode_snapshot(db.context(), 1);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotEncode)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// A checkpoint as the server takes one: Store::checkpoint streams the
/// snapshot into a temp file through the writer's 64 KiB buffer, fsyncs
/// it, renames it over the old one, fsyncs the directory and rotates the
/// WAL. Encode and write are one pass, so this times both.
void BM_SnapshotCheckpoint(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  store::StoreOptions options;
  options.dir = scratch_dir("checkpoint");
  options.wal_fsync = false;
  exec::ExecContext recovered;  // a fresh directory recovers nothing
  auto opened = store::Store::open(std::move(options), recovered);
  GEMS_CHECK_MSG(opened.is_ok(), opened.status().to_string().c_str());
  for (auto _ : state) {
    auto s = (*opened)->checkpoint(db.context());
    GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  }
  const std::uint64_t bytes = metrics::value(
      (*opened)->metrics().snapshot(), "store.snapshot.last_bytes");
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotCheckpoint)->Arg(100)->Arg(500)->Arg(2000)->Arg(20000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);  // fsyncs wait off-CPU

void BM_SnapshotDecode(benchmark::State& state) {
  auto& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const auto image = store::encode_snapshot(db.context(), 1);
  for (auto _ : state) {
    server::Database fresh;  // decode target: empty pool + catalog
    auto info = store::decode_snapshot(image, fresh.context());
    GEMS_CHECK_MSG(info.is_ok(), info.status().to_string().c_str());
    benchmark::DoNotOptimize(fresh.context().tables);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                          state.iterations());
}
BENCHMARK(BM_SnapshotDecode)->Arg(100)->Arg(500)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/// WAL append latency. Arg = fsync on append (0/1). The p50/p99 counters
/// come from the log-scale histogram the store itself maintains, i.e. the
/// same numbers `\stats store.wal.append_us` reports.
void BM_WalAppend(benchmark::State& state) {
  const bool fsync = state.range(0) != 0;
  const std::string dir = scratch_dir(fsync ? "wal_fsync" : "wal_nofsync");
  auto opened = store::Wal::open(dir + "/wal.gwal", 0, fsync);
  GEMS_CHECK_MSG(opened.is_ok(), opened.status().to_string().c_str());
  auto wal = std::move(opened->wal);
  const std::vector<std::uint8_t> payload(256, 0xAB);  // ~1 ingested row
  LatencyHistogram hist;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto seq = wal->append(store::WalRecordType::kIngestRows, payload);
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(seq.is_ok(), seq.status().to_string().c_str());
    hist.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
  }
  state.counters["p50_us"] = static_cast<double>(hist.quantile_us(0.50));
  state.counters["p99_us"] = static_cast<double>(hist.quantile_us(0.99));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(payload.size() + store::kWalFrameBytes) *
      state.iterations());
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Cold recovery: open a checkpointed data directory from scratch
/// (snapshot load and graph build + empty-WAL scan + no replay). Manual timing so the
/// Database destructor (thread joins) stays out of the measurement.
void BM_ColdRecovery(benchmark::State& state) {
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string& dir = checkpointed_dir(scale);
  std::uint64_t snapshot_bytes = 0;
  for (auto _ : state) {
    server::DatabaseOptions options;
    options.store_dir = dir;
    options.wal_fsync = false;
    const auto start = std::chrono::steady_clock::now();
    server::Database db(std::move(options));
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(db.store_status().is_ok(),
                   db.store_status().to_string().c_str());
    snapshot_bytes = metrics::value(db.metrics_snapshot(),
                                    "store.recovery.snapshot_bytes");
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(snapshot_bytes);
}
BENCHMARK(BM_ColdRecovery)->Arg(100)->Arg(500)->Arg(2000)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

constexpr std::size_t kWalReplayScale = 500;
constexpr std::size_t kReviewsPerRecord = 1000;

/// A checkpointed Berlin data directory at kWalReplayScale whose WAL then
/// holds `records` kIngestRows records of kReviewsPerRecord new Reviews
/// each (every column kind but bool, a fifth of the ratings NULL), built
/// once per process.
const std::string& wal_replay_dir(std::size_t records) {
  static std::map<std::size_t, std::string> cache;
  auto it = cache.find(records);
  if (it == cache.end()) {
    const std::string dir = scratch_dir("wal_" + std::to_string(records));
    const auto config = bsbm::GeneratorConfig::derive(kWalReplayScale);
    server::DatabaseOptions options;
    options.data_dir = dir;
    options.store_dir = dir + "/store";
    options.wal_fsync = false;
    auto db = bsbm::make_populated_database(config, options);
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    GEMS_CHECK((*db)->checkpoint().is_ok());
    Xoshiro256 rng(11);
    const std::int64_t jan1 = storage::civil_to_days(2008, 1, 1);
    const auto rating = [&rng]() -> std::string {
      return rng.chance(0.2) ? "" : std::to_string(rng.range(1, 10));
    };
    for (std::size_t k = 0; k < records; ++k) {
      std::ofstream csv(dir + "/reviews.csv", std::ios::trunc);
      for (std::size_t i = 0; i < kReviewsPerRecord; ++i) {
        const std::size_t id = 1'000'000 + k * kReviewsPerRecord + i;
        csv << bsbm::review_id(id) << ",Review,"
            << bsbm::product_id(rng.below(config.num_products)) << ","
            << bsbm::person_id(rng.below(config.num_persons)) << ","
            << storage::format_date(jan1 + rng.range(0, 364)) << ",T"
            << id % 100 << ",txt," << rating() << "," << rating() << ","
            << rating() << "," << rating() << ",gen,"
            << storage::format_date(jan1 + rng.range(0, 364)) << "\n";
      }
      csv.close();
      auto r = (*db)->run_script("ingest table Reviews 'reviews.csv'");
      GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    }
    it = cache.emplace(records, dir + "/store").first;
  }
  return it->second;
}

/// WAL replay on open: Arg = kIngestRows records after the checkpoint.
/// The time is the store's own replay timer (store.recovery.replay_us:
/// WAL scan, record decode, append and graph maintenance), so the
/// snapshot load the open also does stays out of it.
void BM_WalReplay(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  const std::string& dir = wal_replay_dir(records);
  double replay_s = 0;
  for (auto _ : state) {
    server::DatabaseOptions options;
    options.store_dir = dir;
    options.wal_fsync = false;
    server::Database db(std::move(options));
    GEMS_CHECK_MSG(db.store_status().is_ok(),
                   db.store_status().to_string().c_str());
    const metrics::Snapshot m = db.metrics_snapshot();
    GEMS_CHECK(metrics::value(m, "store.recovery.records_applied") ==
               records);
    const double s =
        static_cast<double>(metrics::value(m, "store.recovery.replay_us")) /
        1e6;
    state.SetIterationTime(s);
    replay_s += s;
  }
  state.counters["rows_per_s"] =
      static_cast<double>(records * kReviewsPerRecord) *
      static_cast<double>(state.iterations()) / replay_s;
}
BENCHMARK(BM_WalReplay)->Arg(4)->Arg(16)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

/// The baseline cold recovery replaces: rebuild the same database by
/// re-running the DDL and re-ingesting every CSV (parse + intern + join +
/// CSR build).
void BM_ReIngestBaseline(benchmark::State& state) {
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string& dir = csv_dir(scale);
  std::string ingest_script;
  for (const auto& name : berlin_db(scale).tables().names()) {
    ingest_script +=
        "ingest table " + name + " '" + name + ".csv' with header\n";
  }
  for (auto _ : state) {
    server::DatabaseOptions options;
    options.data_dir = dir;
    const auto start = std::chrono::steady_clock::now();
    server::Database db(std::move(options));
    auto ddl = db.run_script(bsbm::full_ddl());
    GEMS_CHECK_MSG(ddl.is_ok(), ddl.status().to_string().c_str());
    auto r = db.run_script(ingest_script);
    const auto stop = std::chrono::steady_clock::now();
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
}
BENCHMARK(BM_ReIngestBaseline)->Arg(100)->Arg(500)->Arg(2000)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
