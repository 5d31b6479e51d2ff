// E-F1/E-P4 — Sec. II-A2: the `ingest` command. Measures typed CSV
// parsing throughput (rows/s, MB/s) per Berlin table and the atomic
// staging overhead, plus end-to-end ingest including derived-view
// regeneration, and the string pool's interning that ingest runs on.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "common/hash.hpp"
#include "common/prng.hpp"
#include "common/string_pool.hpp"
#include "common/timer.hpp"
#include "storage/csv.hpp"

namespace gems::bench {
namespace {

/// CSV text of one generated table, cached per (table, scale).
const std::string& table_csv(const char* table, std::size_t scale) {
  static std::map<std::pair<std::string, std::size_t>, std::string> cache;
  auto key = std::make_pair(std::string(table), scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    server::Database& db = berlin_db(scale);
    auto t = db.tables().find(table);
    GEMS_CHECK(t.is_ok());
    std::ostringstream out;
    storage::write_csv(**t, out);
    it = cache.emplace(key, out.str()).first;
  }
  return it->second;
}

void BM_Ingest_CsvParse(benchmark::State& state, const char* table) {
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string& csv = table_csv(table, scale);
  server::Database& db = berlin_db(scale);
  auto source = db.tables().find(table);
  GEMS_CHECK(source.is_ok());
  storage::CsvOptions options;
  options.has_header = true;

  StringPool pool;
  std::size_t rows = 0;
  for (auto _ : state) {
    storage::Table fresh(table, (*source)->schema(), pool);
    auto r = storage::ingest_csv_text(fresh, csv, options);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    rows = r->rows;
    benchmark::DoNotOptimize(fresh.num_rows());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["MB_per_sec"] = benchmark::Counter(
      static_cast<double>(csv.size()) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Ingest_Offers(benchmark::State& state) {
  BM_Ingest_CsvParse(state, "Offers");
}
void BM_Ingest_Products(benchmark::State& state) {
  BM_Ingest_CsvParse(state, "Products");
}
void BM_Ingest_Reviews(benchmark::State& state) {
  BM_Ingest_CsvParse(state, "Reviews");
}
BENCHMARK(BM_Ingest_Offers)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ingest_Products)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ingest_Reviews)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// 430,240 distinct strings (the pool's count at Berlin scale 40000):
/// Berlin-like keys and words of 8 to about 30 bytes.
const std::vector<std::string>& pool_strings() {
  static const std::vector<std::string> strings = [] {
    constexpr std::size_t kStrings = 430240;
    std::vector<std::string> s;
    s.reserve(kStrings);
    for (std::size_t i = 0; i < kStrings; ++i) {
      const std::uint64_t h = mix64(i);
      s.push_back("Item" + std::to_string(i) + "_" +
                  std::string(h % 16, static_cast<char>('a' + h % 26)));
    }
    return s;
  }();
  return strings;
}

// The string pool's index probe: pool_strings() interned through
// intern_batch into a fresh pool, so every probe misses and the index
// grows one insert at a time, then all re-interned as hits. ns_per_miss
// and ns_per_hit split the time.
void BM_StringPoolIntern(benchmark::State& state) {
  const std::vector<std::string>& strings = pool_strings();
  const std::size_t n = strings.size();
  const std::vector<std::string_view> views(strings.begin(), strings.end());
  std::vector<StringId> ids(n);
  double miss_s = 0;
  double hit_s = 0;
  for (auto _ : state) {
    StringPool pool;
    Timer miss;
    pool.intern_batch(views, ids.data());
    miss_s += miss.elapsed_seconds();
    Timer hit;
    pool.intern_batch(views, ids.data());
    hit_s += hit.elapsed_seconds();
    GEMS_CHECK(pool.size() == n && ids.back() == n - 1);
    benchmark::DoNotOptimize(ids.data());
  }
  const double probes = static_cast<double>(state.iterations() * n);
  state.counters["ns_per_miss"] = miss_s * 1e9 / probes;
  state.counters["ns_per_hit"] = hit_s * 1e9 / probes;
}
BENCHMARK(BM_StringPoolIntern)->Unit(benchmark::kMillisecond);

// The string pool's id -> string path: view_batch over kChunkRows-id
// batches of every id of the pool_strings() pool in shuffled order, as the
// wire encoder and the sort lanes resolve a batch of varchar cells.
void BM_StringPoolView(benchmark::State& state) {
  const std::vector<std::string>& strings = pool_strings();
  const std::vector<std::string_view> views(strings.begin(), strings.end());
  StringPool pool;
  std::vector<StringId> ids(strings.size());
  pool.intern_batch(views, ids.data());
  std::shuffle(ids.begin(), ids.end(), Xoshiro256(7));
  std::vector<std::string_view> out(kChunkRows);
  double view_s = 0;
  for (auto _ : state) {
    Timer timer;
    for (std::size_t first = 0; first < ids.size(); first += kChunkRows) {
      const std::size_t n = std::min(kChunkRows, ids.size() - first);
      pool.view_batch({ids.data() + first, n}, out.data());
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    view_s += timer.elapsed_seconds();
  }
  state.counters["ns_per_view"] =
      view_s * 1e9 / static_cast<double>(state.iterations() * ids.size());
}
BENCHMARK(BM_StringPoolView)->Unit(benchmark::kMillisecond);

// End-to-end `ingest table ...` including the derived vertex/edge
// regeneration the paper mandates, through a fresh database each
// iteration.
void BM_Ingest_EndToEndWithViewRebuild(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::size_t scale = static_cast<std::size_t>(state.range(0));
  const std::string dir =
      (fs::temp_directory_path() /
       ("gems_bench_ingest_" + std::to_string(scale)))
          .string();
  fs::create_directories(dir);
  {
    server::Database& source = berlin_db(scale);
    GEMS_CHECK(bsbm::write_csv_files(source, dir).is_ok());
  }
  server::DatabaseOptions options;
  options.data_dir = dir;

  std::string ingest_script;
  {
    server::Database& source = berlin_db(scale);
    for (const auto& name : source.tables().names()) {
      ingest_script +=
          "ingest table " + name + " '" + name + ".csv' with header\n";
    }
  }

  std::size_t total_rows = 0;
  for (auto _ : state) {
    server::Database db(options);
    GEMS_CHECK(db.run_script(bsbm::full_ddl()).is_ok());
    auto r = db.run_script(ingest_script);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    total_rows = 0;
    for (const auto& name : db.tables().names()) {
      total_rows += (*db.table(name))->num_rows();
    }
    benchmark::DoNotOptimize(db.graph().total_edges());
  }
  state.counters["total_rows"] = static_cast<double>(total_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(total_rows),
      benchmark::Counter::kIsIterationInvariantRate);
  fs::remove_all(dir);
}
BENCHMARK(BM_Ingest_EndToEndWithViewRebuild)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
