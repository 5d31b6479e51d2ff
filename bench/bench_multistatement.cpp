// E-P2 — Sec. III-B1: multi-statement dependence scheduling. Each row
// runs one script through plan::run_scheduled on a pinned epoch, as
// Database::run_parsed runs a read-only script: the schedule's levels in
// order, each level's statements in script order, on the calling thread.
// The Independent scripts build one level of N statements, the Dependent
// ones a chain of N one-statement levels; the `statements`, `levels` and
// `max_width` counters show that shape. The `/threads:4` row runs four
// wide scripts at once: the scheduler's cost under a concurrent mix.
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

void run_script_bench(benchmark::State& state, const std::string& text) {
  // A magic static: the /threads:4 rows enter here on four threads.
  static server::Database& db = berlin_db(2000);
  auto script = graql::parse_script(text);
  GEMS_CHECK(script.is_ok());
  const plan::Schedule schedule = plan::build_schedule(*script);
  const mvcc::EpochPin pin = db.pin_epoch();
  for (auto _ : state) {
    exec::CatalogOverlay overlay;
    auto r = plan::run_scheduled(*script, schedule, pin.ctx(), {}, overlay);
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
}

void BM_MultiStatement_Independent_Serial(benchmark::State& state) {
  run_script_bench(state, independent_script(
                              static_cast<std::size_t>(state.range(0))));
}
void BM_MultiStatement_Dependent_Serial(benchmark::State& state) {
  run_script_bench(state, dependent_script(
                              static_cast<std::size_t>(state.range(0))));
}

BENCHMARK(BM_MultiStatement_Independent_Serial)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
// Four concurrent wide scripts, each on its own thread.
BENCHMARK(BM_MultiStatement_Independent_Serial)->Arg(8)->Threads(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiStatement_Dependent_Serial)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
