// E-NET — wire overhead and service throughput: Berlin Q1/Q2 shipped as
// binary IR over a loopback TCP connection to gems::net::Server, at 1, 4
// and 16 concurrent clients, and Q5's large reply at 1 and 4. Reports
// requests/s and client-observed p50/p99 latency, plus the server-side
// queue-wait vs. execute split from the `net.run_script.*` histograms (the
// kStats verb), so wire/queue cost is separable from execution cost.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace gems::bench {
namespace {

constexpr std::size_t kScale = 500;
/// Scale of the large-reply case: Berlin Q5 ships its whole `Q5T`
/// intermediate (about 30k rows, half a megabyte) back to the client.
constexpr std::size_t kLargeReplyScale = 10000;

net::ClientOptions client_options(std::uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.client_name = "bench-net";
  return options;
}

/// Runs `total_requests` of `script` spread over `num_clients` connections
/// and appends the client-observed per-request latencies (microseconds).
void hammer(std::uint16_t port, const std::string& script,
            const relational::ParamMap& params, int num_clients,
            int total_requests, std::vector<std::uint64_t>& latencies_us) {
  const std::size_t base = latencies_us.size();
  latencies_us.resize(base + static_cast<std::size_t>(total_requests), 0);
  std::atomic<int> next{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&] {
      net::Client client(client_options(port));
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (;;) {
        const int slot = next.fetch_add(1);
        if (slot >= total_requests) return;
        const auto start = std::chrono::steady_clock::now();
        auto r = client.run_script(script, params);
        const auto stop = std::chrono::steady_clock::now();
        if (!r.is_ok()) {
          failures.fetch_add(1);
          return;
        }
        latencies_us[base + static_cast<std::size_t>(slot)] =
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(stop -
                                                                      start)
                    .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  GEMS_CHECK_MSG(failures.load() == 0, "wire benchmark request failed");
}

std::uint64_t percentile_us(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

void run_wire_benchmark(benchmark::State& state, const std::string& script,
                        std::size_t scale = kScale) {
  const int num_clients = static_cast<int>(state.range(0));
  server::Database& db = berlin_db(scale);
  net::ServerOptions options;
  options.num_workers = 4;
  net::Server server(db, options);
  GEMS_CHECK(server.start().is_ok());
  const auto params = berlin_params();

  const int requests_per_iter = std::max(16, num_clients * 4);
  std::vector<std::uint64_t> latencies_us;
  for (auto _ : state) {
    hammer(server.port(), script, params, num_clients, requests_per_iter,
           latencies_us);
  }

  state.counters["clients"] = static_cast<double>(num_clients);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(latencies_us.size()), benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.50));
  state.counters["p99_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.99));

  // Server-side split, over the wire like any other client would get it.
  net::Client stats_client(client_options(server.port()));
  GEMS_CHECK(stats_client.connect().is_ok());
  auto snapshot = stats_client.stats();
  GEMS_CHECK(snapshot.is_ok());
  const metrics::Record* queue =
      metrics::find(*snapshot, "net.run_script.queue_wait_us");
  const metrics::Record* exec =
      metrics::find(*snapshot, "net.run_script.execute_us");
  GEMS_CHECK(queue != nullptr && exec != nullptr);
  state.counters["srv_queue_p50_us"] =
      static_cast<double>(queue->histogram.quantile_us(0.50));
  state.counters["srv_queue_p99_us"] =
      static_cast<double>(queue->histogram.quantile_us(0.99));
  state.counters["srv_exec_p50_us"] =
      static_cast<double>(exec->histogram.quantile_us(0.50));
  state.counters["srv_exec_p99_us"] =
      static_cast<double>(exec->histogram.quantile_us(0.99));
  server.stop();
}

void BM_Wire_BerlinQ1(benchmark::State& state) {
  run_wire_benchmark(state, bsbm::berlin_q1());
}
BENCHMARK(BM_Wire_BerlinQ1)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Wire_BerlinQ2(benchmark::State& state) {
  run_wire_benchmark(state, bsbm::berlin_q2());
}
BENCHMARK(BM_Wire_BerlinQ2)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The large-reply case: each Q5 reply streams a ~30k-row table through
/// the server's bounded reply buffer.
void BM_Wire_BerlinQ5(benchmark::State& state) {
  run_wire_benchmark(state, bsbm::berlin_q5(), kLargeReplyScale);
}
BENCHMARK(BM_Wire_BerlinQ5)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// E-NETCONC — read-only throughput scaling across server workers: Berlin
/// Q1 (read-only, so it runs against a pinned epoch without the writer
/// lock) hammered at 1/4/16 clients against a server with 1 vs 4 worker
/// threads. Read-only scripts execute concurrently, so multi-worker
/// throughput scales with the cores the host has (see EXPERIMENTS.md).
/// The peak pinned-reader count (`mvcc.pins.peak`) from the stats verb rides
/// along so the JSON trail shows the read concurrency actually achieved.
void BM_WireReadScaling(benchmark::State& state) {
  const int num_workers = static_cast<int>(state.range(0));
  const int num_clients = static_cast<int>(state.range(1));
  // A database of its own, so the peak pinned-reader count
  // is this case's read concurrency rather than the whole process's.
  auto fresh = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(kScale, 42));
  GEMS_CHECK_MSG(fresh.is_ok(), fresh.status().to_string().c_str());
  server::Database& db = **fresh;
  net::ServerOptions options;
  options.num_workers = static_cast<std::size_t>(num_workers);
  net::Server server(db, options);
  GEMS_CHECK(server.start().is_ok());
  const auto params = berlin_params();
  const std::string script = bsbm::berlin_q1();

  const int requests_per_iter = std::max(16, num_clients * 4);
  std::vector<std::uint64_t> latencies_us;
  for (auto _ : state) {
    hammer(server.port(), script, params, num_clients, requests_per_iter,
           latencies_us);
  }

  state.counters["workers"] = static_cast<double>(num_workers);
  state.counters["clients"] = static_cast<double>(num_clients);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(latencies_us.size()), benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.50));
  state.counters["p99_us"] =
      static_cast<double>(percentile_us(latencies_us, 0.99));

  net::Client stats_client(client_options(server.port()));
  GEMS_CHECK(stats_client.connect().is_ok());
  auto snapshot = stats_client.stats();
  GEMS_CHECK(snapshot.is_ok());
  state.counters["peak_pinned_readers"] =
      static_cast<double>(metrics::value(*snapshot, "mvcc.pins.peak"));
  server.stop();
}
BENCHMARK(BM_WireReadScaling)
    ->Args({1, 1})->Args({1, 4})->Args({1, 16})
    ->Args({4, 1})->Args({4, 4})->Args({4, 16})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Baseline: the same scripts without the wire (direct Database calls),
/// for the "what does the network layer cost" comparison.
void BM_Direct_BerlinQ1(benchmark::State& state) {
  server::Database& db = berlin_db(kScale);
  const auto params = berlin_params();
  for (auto _ : state) {
    auto r = must_run(db, bsbm::berlin_q1(), params);
    benchmark::DoNotOptimize(r.table);
  }
}
BENCHMARK(BM_Direct_BerlinQ1)->Unit(benchmark::kMillisecond);

void BM_Direct_BerlinQ2(benchmark::State& state) {
  server::Database& db = berlin_db(kScale);
  const auto params = berlin_params();
  for (auto _ : state) {
    auto r = must_run(db, bsbm::berlin_q2(), params);
    benchmark::DoNotOptimize(r.table);
  }
}
BENCHMARK(BM_Direct_BerlinQ2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gems::bench

BENCHMARK_MAIN();
