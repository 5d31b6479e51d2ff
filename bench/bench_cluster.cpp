// E-P3b — the multi-process cluster made literal (Sec. I/III): the same
// distributed fixpoint as bench_dist_scaling, but over the GBSP socket
// wire (coordinator + rank workers on loopback) instead of the in-process
// SimCluster. On one machine the wall times mainly show framing +
// loopback + star-routing overhead on top of the identical BSP stream;
// the counters (wire bytes vs. payload bytes, messages, supersteps) are
// the transport-independent outputs that would dominate on a real
// cluster. See EXPERIMENTS.md for the single-core caveat.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/rank_worker.hpp"
#include "common/metrics.hpp"
#include "dist/dist_matcher.hpp"
#include "exec/lowering.hpp"
#include "graql/parser.hpp"

namespace gems::bench {
namespace {

constexpr std::size_t kScale = 1000;

const char* kChainQuery =
    "select * from graph PersonVtx(country = 'US') <--reviewer-- "
    "ReviewVtx() --reviewFor--> ProductVtx() --producer--> "
    "ProducerVtx() into table res";

/// A running loopback cluster: coordinator attached to `db`, `ranks`
/// in-thread workers connected and synced.
struct LiveCluster {
  LiveCluster(server::Database& db, std::size_t ranks) : coordinator{[&] {
    cluster::CoordinatorOptions opt;
    opt.num_ranks = ranks;
    return std::make_unique<cluster::Coordinator>(db, opt);
  }()} {
    GEMS_CHECK(coordinator->start().is_ok());
    for (std::size_t r = 0; r < ranks; ++r) {
      cluster::RankWorkerOptions wopt;
      wopt.coordinator_port = coordinator->port();
      wopt.rank = static_cast<std::uint32_t>(r);
      workers.push_back(
          std::make_unique<cluster::RankWorker>(std::move(wopt)));
      threads.emplace_back([w = workers.back().get()] { (void)w->run(); });
    }
    GEMS_CHECK(coordinator->wait_for_ranks().is_ok());
    coordinator->attach();
  }

  ~LiveCluster() {
    coordinator->shutdown();
    for (auto& t : threads) t.join();
  }

  std::unique_ptr<cluster::Coordinator> coordinator;
  std::vector<std::unique_ptr<cluster::RankWorker>> workers;
  std::vector<std::thread> threads;
};

// Full round trip per iteration: hook dispatch, job fan-out, BSP fixpoint
// over sockets, gather, merge into a result table.
void BM_Cluster_SocketMatch(benchmark::State& state) {
  server::Database& db = berlin_db(kScale);
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  LiveCluster cluster(db, ranks);
  // The cluster.* counters count for the database's lifetime, across the
  // earlier rank counts' clusters: report this run's share.
  const metrics::Snapshot before = db.metrics_snapshot();
  for (auto _ : state) {
    auto r = db.run_script(kChainQuery);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    benchmark::DoNotOptimize(r->back().table);
  }
  const metrics::Snapshot after = db.metrics_snapshot();
  auto delta = [&](const std::string& name) {
    return static_cast<double>(metrics::value(after, name) -
                               metrics::value(before, name));
  };
  const double jobs = std::max(1.0, delta("cluster.jobs"));
  state.counters["ranks"] = static_cast<double>(ranks);
  double messages = 0, payload = 0, wire = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    const std::string p = "cluster.rank." + std::to_string(r) + ".";
    messages += delta(p + "messages");
    payload += delta(p + "payload_bytes");
    wire += delta(p + "wire_bytes");
  }
  state.counters["messages_per_job"] = messages / jobs;
  state.counters["payload_bytes_per_job"] = payload / jobs;
  state.counters["wire_bytes_per_job"] = wire / jobs;
  state.counters["supersteps_per_job"] =
      delta("cluster.rank.0.supersteps") / jobs;
}
BENCHMARK(BM_Cluster_SocketMatch)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The in-process simulated cluster on the same query/data/rank counts —
// the byte-identical reference; the delta to BM_Cluster_SocketMatch is
// pure transport overhead (framing, CRC, loopback, context switches).
void BM_Cluster_SimBaseline(benchmark::State& state) {
  server::Database& db = berlin_db(kScale);
  auto stmt = graql::parse_statement(kChainQuery);
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
  auto resolver = [](const std::string&) -> Result<exec::SubgraphPtr> {
    return not_found("none");
  };
  auto lowered =
      exec::lower_graph_query(q, db.graph(), resolver, {}, db.pool());
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  dist::DistStats stats;
  for (auto _ : state) {
    auto r = dist::match_network_distributed(lowered->networks[0],
                                             db.graph(), db.pool(), ranks,
                                             &stats);
    GEMS_CHECK(r.is_ok());
    benchmark::DoNotOptimize(r->domains);
  }
  state.counters["ranks"] = static_cast<double>(ranks);
  state.counters["messages"] = static_cast<double>(stats.messages);
  state.counters["payload_bytes"] = static_cast<double>(stats.bytes);
}
BENCHMARK(BM_Cluster_SimBaseline)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The state-sync payload: one full snapshot image per admitted stateless
// rank. Encode cost + size bound the cluster's cold-start time.
void BM_Cluster_SnapshotEncode(benchmark::State& state) {
  server::Database& db = berlin_db(kScale);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto image = db.snapshot_bytes();
    bytes = image.size();
    benchmark::DoNotOptimize(image);
  }
  state.counters["image_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Cluster_SnapshotEncode)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
