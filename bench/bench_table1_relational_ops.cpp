// E-T1 / E-VEC — Table I: every relational operation GraQL supports, as a
// conformance + throughput sweep over the generated Offers table
// (select/projection, order by, group by, distinct, count, avg, min, max,
// sum, top n, aliasing). BENCH_vectorized.json records this sweep.
#include "bench_common.hpp"

namespace gems::bench {
namespace {

struct Op {
  const char* name;
  const char* query;
};

constexpr Op kOps[] = {
    {"select_where",
     "select id, price from table Offers where price > 500.0"},
    {"projection_alias", "select id as offer, price as cost from table "
                         "Offers"},
    {"order_by", "select id, price from table Offers order by price desc"},
    {"group_by_count",
     "select product, count(*) as n from table Offers group by product"},
    {"distinct", "select distinct vendor from table Offers"},
    {"count_star", "select count(*) as n from table Offers"},
    {"avg", "select avg(price) as mean from table Offers"},
    {"min_max", "select min(price) as lo, max(price) as hi, min(validFrom) "
                "as first from table Offers"},
    {"sum", "select sum(deliveryDays) as days from table Offers"},
    {"top_n", "select top 10 id, price from table Offers order by price"},
    {"full_pipeline",
     "select top 5 vendor, count(*) as n, avg(price) as mean from table "
     "Offers where deliveryDays <= 7 group by vendor order by mean desc"},
};

void BM_Table1_Op(benchmark::State& state) {
  const Op& op = kOps[state.range(0)];
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(1)));
  const auto params = berlin_params();
  const double input_rows =
      static_cast<double>((*db.table("Offers"))->num_rows());
  std::size_t out_rows = 0;
  for (auto _ : state) {
    auto r = must_run(db, op.query, params);
    out_rows = r.table->num_rows();
    benchmark::DoNotOptimize(r.table);
  }
  state.SetLabel(op.name);
  state.counters["input_rows"] = input_rows;
  state.counters["output_rows"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      input_rows, benchmark::Counter::kIsIterationInvariantRate);
}

void register_ops() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    for (const std::size_t scale : {2000, 20000}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_Table1_") + kOps[i].name).c_str(), BM_Table1_Op)
          ->Args({static_cast<long>(i), static_cast<long>(scale)})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

const int kRegistered = (register_ops(), 0);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
