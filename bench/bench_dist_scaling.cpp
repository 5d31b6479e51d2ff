// E-P3 — the simulated GEMS backend cluster (Sec. I/III): distributed
// fixpoint matching across 1..8 simulated ranks. On one machine the
// interesting outputs are the *communication* metrics — messages, bytes,
// activation counts per query — which are exactly what would dominate on
// a real cluster. Wall time on an oversubscribed host mainly shows the
// BSP coordination overhead growing with rank count.
#include "bench_common.hpp"
#include "dist/dist_matcher.hpp"
#include "exec/lowering.hpp"
#include "graql/parser.hpp"

namespace gems::bench {
namespace {

exec::ConstraintNetwork lower_one(server::Database& db,
                                  const std::string& text) {
  auto stmt = graql::parse_statement(text);
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
  auto resolver = [](const std::string&) -> Result<exec::SubgraphPtr> {
    return not_found("none");
  };
  auto lowered = exec::lower_graph_query(q, db.graph(), resolver,
                                         berlin_params(), db.pool());
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  return std::move(lowered.value().networks[0]);
}

const char* kChainQuery =
    "select * from graph PersonVtx(country = 'US') <--reviewer-- "
    "ReviewVtx() --reviewFor--> ProductVtx() --producer--> "
    "ProducerVtx() into subgraph g";

void BM_Dist_ChainQuery(benchmark::State& state) {
  server::Database& db = berlin_db(2000);
  const exec::ConstraintNetwork net = lower_one(db, kChainQuery);
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  dist::DistStats stats;
  for (auto _ : state) {
    auto r = dist::match_network_distributed(net, db.graph(), db.pool(),
                                             ranks, &stats);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    benchmark::DoNotOptimize(r->domains);
  }
  state.counters["ranks"] = static_cast<double>(ranks);
  state.counters["messages"] = static_cast<double>(stats.messages);
  state.counters["net_bytes"] = static_cast<double>(stats.bytes);
  state.counters["activations"] = static_cast<double>(stats.activations);
  state.counters["supersteps"] = static_cast<double>(stats.supersteps);
}
BENCHMARK(BM_Dist_ChainQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Communication volume as the data grows, at fixed rank count: bytes
// should scale with the frontier sizes (≈ linearly in the data).
void BM_Dist_DataScaling(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const exec::ConstraintNetwork net = lower_one(db, kChainQuery);
  dist::DistStats stats;
  for (auto _ : state) {
    auto r = dist::match_network_distributed(net, db.graph(), db.pool(), 4,
                                             &stats);
    GEMS_CHECK(r.is_ok());
    benchmark::DoNotOptimize(r->domains);
  }
  state.counters["net_bytes"] = static_cast<double>(stats.bytes);
  state.counters["activations"] = static_cast<double>(stats.activations);
}
BENCHMARK(BM_Dist_DataScaling)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// Single-node baseline for the same network (no runtime, no messages).
void BM_Dist_SingleNodeBaseline(benchmark::State& state) {
  server::Database& db = berlin_db(2000);
  const exec::ConstraintNetwork net = lower_one(db, kChainQuery);
  for (auto _ : state) {
    auto r = exec::match_network(net, db.graph(), db.pool());
    GEMS_CHECK(r.is_ok());
    benchmark::DoNotOptimize(r->domains);
  }
}
BENCHMARK(BM_Dist_SingleNodeBaseline)->Unit(benchmark::kMillisecond);

// Selective queries move less data: the frontier is small, so remote
// activations (and bytes) collapse even though the graph is the same.
void BM_Dist_SelectiveQuery(benchmark::State& state) {
  server::Database& db = berlin_db(2000);
  const exec::ConstraintNetwork net = lower_one(
      db,
      "select * from graph ProductVtx(id = %Product1%) --feature--> "
      "FeatureVtx() <--feature-- ProductVtx() into subgraph g");
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  dist::DistStats stats;
  for (auto _ : state) {
    auto r = dist::match_network_distributed(net, db.graph(), db.pool(),
                                             ranks, &stats);
    GEMS_CHECK(r.is_ok());
    benchmark::DoNotOptimize(r->domains);
  }
  state.counters["net_bytes"] = static_cast<double>(stats.bytes);
  state.counters["activations"] = static_cast<double>(stats.activations);
}
BENCHMARK(BM_Dist_SelectiveQuery)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
