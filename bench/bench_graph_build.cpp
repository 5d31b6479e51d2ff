// E-F2/F3/E-P4 — Figs. 2-3: materializing the graph view. Measures
// vertex-type builds (Eq. 1: key dedup + filter), edge-type builds
// (Eq. 2: joins) and the bidirectional CSR construction, per scale
// factor, plus the full Berlin view rebuild ingest triggers.
#include "bench_common.hpp"

namespace gems::bench {
namespace {

using relational::BinaryOp;
using relational::Expr;

void BM_GraphBuild_VertexType(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const graph::VertexDecl decl{"BV", {"id"}, "Offers", nullptr};
  std::size_t vertices = 0;
  for (auto _ : state) {
    graph::GraphView scratch;
    GEMS_CHECK(
        graph::add_vertex_type(scratch, decl, db.tables(), db.pool())
            .is_ok());
    vertices = scratch.vertex_type(0).num_vertices();
    benchmark::DoNotOptimize(vertices);
  }
  state.counters["vertices"] = static_cast<double>(vertices);
  state.counters["vertices_per_sec"] = benchmark::Counter(
      static_cast<double>(vertices),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GraphBuild_VertexType)->Arg(2000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_GraphBuild_DirectJoinEdge(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const graph::VertexDecl offers{"BO", {"id"}, "Offers", nullptr};
  const graph::VertexDecl products{"BP", {"id"}, "Products", nullptr};
  const graph::EdgeDecl edge{
      "Bproduct",
      {"BO", ""},
      {"BP", ""},
      {},
      Expr::make_binary(BinaryOp::kEq, Expr::make_column("BO", "product"),
                        Expr::make_column("BP", "id"))};
  std::size_t edges = 0;
  for (auto _ : state) {
    graph::GraphView scratch;
    GEMS_CHECK(graph::add_vertex_type(scratch, offers, db.tables(),
                                      db.pool())
                   .is_ok());
    GEMS_CHECK(graph::add_vertex_type(scratch, products, db.tables(),
                                      db.pool())
                   .is_ok());
    GEMS_CHECK(
        graph::add_edge_type(scratch, edge, db.tables(), db.pool()).is_ok());
    edges = scratch.edge_type(0).num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(edges),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GraphBuild_DirectJoinEdge)->Arg(2000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_GraphBuild_AssocTableEdge(benchmark::State& state) {
  server::Database& db = berlin_db(static_cast<std::size_t>(state.range(0)));
  const graph::VertexDecl products{"BP", {"id"}, "Products", nullptr};
  const graph::VertexDecl features{"BF", {"id"}, "Features", nullptr};
  const graph::EdgeDecl edge{
      "Bfeature",
      {"BP", ""},
      {"BF", ""},
      {"ProductFeatures"},
      Expr::make_binary(
          BinaryOp::kAnd,
          Expr::make_binary(BinaryOp::kEq,
                            Expr::make_column("ProductFeatures", "product"),
                            Expr::make_column("BP", "id")),
          Expr::make_binary(BinaryOp::kEq,
                            Expr::make_column("ProductFeatures", "feature"),
                            Expr::make_column("BF", "id")))};
  std::size_t edges = 0;
  for (auto _ : state) {
    graph::GraphView scratch;
    GEMS_CHECK(graph::add_vertex_type(scratch, products, db.tables(),
                                      db.pool())
                   .is_ok());
    GEMS_CHECK(graph::add_vertex_type(scratch, features, db.tables(),
                                      db.pool())
                   .is_ok());
    GEMS_CHECK(
        graph::add_edge_type(scratch, edge, db.tables(), db.pool()).is_ok());
    edges = scratch.edge_type(0).num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_GraphBuild_AssocTableEdge)->Arg(2000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Ingest's full derived-view regeneration: all 10 vertex types + 9 edge
// types + the country view (Sec. II-A2). Args: scale, intra-node threads
// (0 builds every type on the calling thread; 4 fans them out).
void BM_GraphBuild_FullBerlinRebuild(benchmark::State& state) {
  server::Database& db =
      berlin_db(static_cast<std::size_t>(state.range(0)), 42,
                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    GEMS_CHECK(db.context().rebuild_graph().is_ok());
    benchmark::DoNotOptimize(db.graph().total_edges());
  }
  state.counters["total_vertices"] =
      static_cast<double>(db.graph().total_vertices());
  state.counters["total_edges"] =
      static_cast<double>(db.graph().total_edges());
}
BENCHMARK(BM_GraphBuild_FullBerlinRebuild)
    ->ArgsProduct({{500, 2000, 10000, 40000}, {0, 4}})
    ->ArgNames({"scale", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
