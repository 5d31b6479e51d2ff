// The fixpoint matcher on one thread (DESIGN.md §5e), on a Berlin graph
// past 100k vertices: four query shapes that stress frontier expansion,
// self-condition filtering, regex closure and matched-edge marking.
// `scripts/bench_json.sh bench_parallel_matcher` records BENCH_matcher.json.
#include "bench_common.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "graql/parser.hpp"

namespace gems::bench {
namespace {

// ~9.5 vertices per product: 12000 products ≈ 114k vertices.
constexpr std::size_t kScale = 12000;

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

void run_match(benchmark::State& state, const std::string& query) {
  server::Database& db = berlin_db(kScale);
  const exec::ConstraintNetwork net = lower_one(db, query);
  exec::MatchStats stats;
  for (auto _ : state) {
    auto r = exec::match_network(net, db.graph(), db.pool());
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    stats = r->stats;
    benchmark::DoNotOptimize(r->domains);
  }
  state.counters["edge_traversals"] =
      static_cast<double>(stats.edge_traversals);
}

// The Berlin review chain: wide frontiers (offers 60k, reviews 36k,
// products 12k).
void BM_ParMatch_Chain(benchmark::State& state) {
  run_match(state,
            "select * from graph PersonVtx(country = 'US') <--reviewer-- "
            "ReviewVtx() --reviewFor--> ProductVtx() --producer--> "
            "ProducerVtx() into subgraph g");
}
BENCHMARK(BM_ParMatch_Chain)->Unit(benchmark::kMillisecond);

// Predicate-heavy: most matcher time goes to evaluating self conditions
// (initial_domain + edge filters).
void BM_ParMatch_Filtered(benchmark::State& state) {
  run_match(state,
            "select * from graph OfferVtx(price < 500) --product--> "
            "ProductVtx(propertyNumeric_1 < 800) --producer--> "
            "ProducerVtx() into subgraph g");
}
BENCHMARK(BM_ParMatch_Filtered)->Unit(benchmark::kMillisecond);

// Regex closure: the group fixpoint re-expands frontiers every hop, so
// closure caching shows up here.
void BM_ParMatch_Regex(benchmark::State& state) {
  run_match(state,
            "select * from graph ProductVtx() ( --type--> [ ] )+ "
            "into subgraph g");
}
BENCHMARK(BM_ParMatch_Regex)->Unit(benchmark::kMillisecond);

// Variant-edge star: matched-edge marking dominates (many edge types),
// exercising the CSR-walk marking path rather than frontier expansion.
void BM_ParMatch_Star(benchmark::State& state) {
  run_match(state,
            "select * from graph ProductVtx(propertyNumeric_1 < 500) "
            "<--[]-- [ ] into subgraph g");
}
BENCHMARK(BM_ParMatch_Star)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
