// E-P2 — Sec. III-B1: multi-statement dependence scheduling. Scripts of
// independent `into table` queries run serially vs through the parallel
// scheduler on the shared default_thread_pool(), as Database::run_parsed
// runs them; dependent chains must stay serialized. The `/threads:4` rows
// run four such scripts at once, all sharing that pool: the concurrent mix
// in which a level's fan-out competes with the other requests. (On a
// single-core host the parallel win is bounded by oversubscription — the
// schedule *width* counters show the available parallelism either way.)
#include "bench_common.hpp"
#include "graql/parser.hpp"
#include "plan/schedule.hpp"

namespace gems::bench {
namespace {

/// A script of N independent queries, one per producer country.
std::string independent_script(std::size_t n) {
  std::string script;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& country =
        bsbm::countries()[i % bsbm::countries().size()];
    script += "select ProductVtx.id from graph ProductVtx() --producer--> "
              "ProducerVtx(country = '" +
              country + "') into table R" + std::to_string(i) + "\n";
  }
  return script;
}

/// A chain: each statement reads the previous result.
std::string dependent_script(std::size_t n) {
  std::string script =
      "select ProductVtx.id, OfferVtx.price from graph OfferVtx() "
      "--product--> ProductVtx() into table C0\n";
  for (std::size_t i = 1; i < n; ++i) {
    script += "select id, price from table C" + std::to_string(i - 1) +
              " where price > " + std::to_string(i) + " into table C" +
              std::to_string(i) + "\n";
  }
  return script;
}

void run_script_bench(benchmark::State& state, const std::string& text,
                      bool parallel) {
  // A magic static: the /threads:4 rows enter here on four threads.
  static server::Database& db = berlin_db(2000);
  auto script = graql::parse_script(text);
  GEMS_CHECK(script.is_ok());
  const plan::Schedule schedule = plan::build_schedule(*script);
  const mvcc::EpochPin pin = db.pin_epoch();
  for (auto _ : state) {
    exec::CatalogOverlay overlay;
    auto r = plan::run_scheduled(*script, schedule, pin.ctx(), {}, overlay,
                                 parallel ? &default_thread_pool() : nullptr);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    benchmark::DoNotOptimize(r.value());
  }
  // Counters sum over threads; one thread reports the schedule's shape.
  if (state.thread_index() == 0) {
    state.counters["statements"] =
        static_cast<double>(schedule.num_statements());
    state.counters["levels"] = static_cast<double>(schedule.levels.size());
    state.counters["max_width"] = static_cast<double>(schedule.max_width());
  }
  state.SetLabel(parallel ? "parallel" : "serial");
}

void BM_MultiStatement_Independent_Serial(benchmark::State& state) {
  run_script_bench(state, independent_script(
                              static_cast<std::size_t>(state.range(0))),
                   false);
}
void BM_MultiStatement_Independent_Parallel(benchmark::State& state) {
  run_script_bench(state, independent_script(
                              static_cast<std::size_t>(state.range(0))),
                   true);
}
void BM_MultiStatement_Dependent_Serial(benchmark::State& state) {
  run_script_bench(state, dependent_script(
                              static_cast<std::size_t>(state.range(0))),
                   false);
}
void BM_MultiStatement_Dependent_Parallel(benchmark::State& state) {
  // Dependence forces the schedule to one statement per level; the
  // parallel runner degenerates to serial (max_width == 1).
  run_script_bench(state, dependent_script(
                              static_cast<std::size_t>(state.range(0))),
                   true);
}

BENCHMARK(BM_MultiStatement_Independent_Serial)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiStatement_Independent_Parallel)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
// Four concurrent wide scripts: the fan-out under a concurrent mix.
BENCHMARK(BM_MultiStatement_Independent_Serial)->Arg(8)->Threads(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiStatement_Independent_Parallel)->Arg(8)->Threads(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiStatement_Dependent_Serial)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiStatement_Dependent_Parallel)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
