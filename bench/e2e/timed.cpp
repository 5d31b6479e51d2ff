// The timed run: set-up timed over several fresh server children, then
// closed-loop readers (and, for reads_with_ingest, an open-loop writer)
// over loopback net::Client connections from this process only, a warm-up
// and a measured window. Outputs are checked against an oracle database
// built in this process from the same seed, and the durable workload is
// restarted and checked after its window.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <thread>

#include "net/client.hpp"
#include "process.hpp"
#include "report.hpp"
#include "runs.hpp"

namespace gems::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Sampled responses compared with the oracle, over all readers.
constexpr std::size_t kOracleSamples = 100;
/// Set-ups timed per run; setup_s is their median, which one slow spawn
/// cannot move.
constexpr int kSetups = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Phase {
  Clock::time_point start;         // load begins (warm-up)
  Clock::time_point window_start;  // measurement begins
  Clock::time_point window_end;

  bool in_window(Clock::time_point t) const {
    return t >= window_start && t <= window_end;
  }
};

net::ClientOptions client_options(std::uint16_t port, const std::string& name) {
  net::ClientOptions options;
  options.port = port;
  options.client_name = name;
  return options;
}

struct Sample {
  Request request;
  std::string rendered;
};

/// One read that completed inside the window.
struct Completion {
  double latency_ms;
  const std::string* query;
};

struct ReaderOutcome {
  std::vector<Completion> completions;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;
};

/// One closed-loop reader: sends its next request when the previous reply
/// arrives. Keeps a seeded reservoir sample of `reservoir` in-window
/// responses to oracle-checked queries, rendered once the window closes.
ReaderOutcome run_reader(const RunConfig& config,
                         const bsbm::GeneratorConfig& data,
                         std::uint16_t port, int client, const Phase& phase,
                         std::size_t reservoir) {
  const Workload& w = *config.workload;
  ReaderOutcome out;
  net::Client conn(client_options(port, "bench-e2e-reader"));
  if (!conn.connect().is_ok()) {
    out.attempted = out.failed = 1;
    return out;
  }
  RequestStream stream(w, data, config.seed, client);
  Xoshiro256 pick(SplitMix64(config.seed * 7919u + 17u * client).next());
  struct Kept {
    Request request;
    std::vector<exec::StatementResult> results;
  };
  std::vector<Kept> kept;
  std::uint64_t eligible = 0;

  std::this_thread::sleep_until(phase.start);
  while (Clock::now() < phase.window_end) {
    Request req = stream.next();
    const auto t0 = Clock::now();
    auto r = conn.run_script(req.query->text, req.params);
    const auto t1 = Clock::now();
    ++out.attempted;
    if (!r.is_ok()) {
      if (out.failed++ == 0) {
        std::cerr << "reader " << client << ": " << req.query->name << ": "
                  << r.status().to_string() << "\n";
      }
      if (!conn.connected()) break;
      continue;
    }
    if (!phase.in_window(t1)) continue;
    out.completions.push_back({ms_between(t0, t1), &req.query->name});
    const auto& checked = w.oracle_checked;
    if (std::find(checked.begin(), checked.end(), req.query->name) ==
        checked.end()) {
      continue;
    }
    ++eligible;
    if (kept.size() < reservoir) {
      kept.push_back({std::move(req), std::move(r).value()});
    } else if (const auto j = pick.below(eligible); j < reservoir) {
      kept[j] = {std::move(req), std::move(r).value()};
    }
  }
  // Render while the connection's string pool still backs the tables.
  const bool answer_only = w.ingests_per_s > 0;
  for (auto& k : kept) {
    out.samples.push_back({std::move(k.request), render(k.results, answer_only)});
  }
  return out;
}

struct WriterOutcome {
  std::vector<double> latencies_ms;  // scheduled in the window
  double late_ms_max = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t acked = 0;
};

/// The open-loop writer: ingest i is due at start + i / rate whatever the
/// server's state, and its latency runs from that due time, so a stall
/// also charges the ingests queued behind it.
WriterOutcome run_writer(std::uint16_t port, double rate,
                         const std::vector<std::string>& batches,
                         const Phase& phase) {
  WriterOutcome out;
  net::Client conn(client_options(port, "bench-e2e-writer"));
  if (!conn.connect().is_ok()) {
    out.attempted = out.failed = 1;
    return out;
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  for (std::size_t i = 0;; ++i) {
    const auto due = phase.start + period * static_cast<long>(i);
    if (due >= phase.window_end) break;
    GEMS_CHECK_MSG(i < batches.size(), "too few ingest batches written");
    std::this_thread::sleep_until(due);
    out.late_ms_max = std::max(out.late_ms_max, ms_between(due, Clock::now()));
    auto r = conn.run_script(ingest_script(batches[i]));
    const auto done = Clock::now();
    ++out.attempted;
    if (!r.is_ok()) {
      if (out.failed++ == 0) {
        std::cerr << "writer: " << r.status().to_string() << "\n";
      }
      if (!conn.connected()) break;
      continue;
    }
    ++out.acked;
    if (due >= phase.window_start) {
      out.latencies_ms.push_back(ms_between(due, done));
    }
  }
  return out;
}

/// Runs one script over a fresh connection; the rendered full result.
Result<std::string> query_rendered(std::uint16_t port, const std::string& text,
                                   const relational::ParamMap& params) {
  net::Client conn(client_options(port, "bench-e2e-check"));
  GEMS_RETURN_IF_ERROR(conn.connect());
  GEMS_ASSIGN_OR_RETURN(auto results, conn.run_script(text, params));
  return render(results, /*answer_only=*/false);
}

Result<std::int64_t> reviews_count(std::uint16_t port) {
  net::Client conn(client_options(port, "bench-e2e-check"));
  GEMS_RETURN_IF_ERROR(conn.connect());
  GEMS_ASSIGN_OR_RETURN(
      auto results, conn.run_script("select count(*) as n from table Reviews"));
  const auto& table = results.back().table;
  if (table == nullptr || table->num_rows() != 1) {
    return internal_error("count(*) returned no single row");
  }
  return table->value_at(0, 0).as_int64();
}

/// Compares every sample with Database::run_script on the oracle, over
/// four threads. Returns the number of mismatches.
std::size_t check_with_oracle(server::Database& oracle,
                              const std::vector<Sample>& samples,
                              bool answer_only) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < samples.size(); i = next++) {
        const Sample& s = samples[i];
        auto r = oracle.run_script(s.request.query->text, s.request.params);
        if (r.is_ok() && render(*r, answer_only) == s.rendered) continue;
        if (mismatches++ == 0) {
          std::cerr << "oracle mismatch on " << s.request.query->name
                    << ":\n--- server\n" << s.rendered.substr(0, 2000)
                    << "\n--- oracle\n"
                    << (r.is_ok() ? render(*r, answer_only).substr(0, 2000)
                                  : r.status().to_string())
                    << "\n";
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return mismatches.load();
}

std::vector<std::string> server_args(const RunConfig& config,
                                     const std::string& store_dir,
                                     bool recover) {
  std::vector<std::string> args = {
      "--role=server", "--workload", config.workload->name,
      "--seed",        std::to_string(config.seed),
      "--scale",       std::to_string(config.scale),
      "--store",       store_dir};
  if (recover) args.push_back("--recover");
  return args;
}

std::unique_ptr<ServerProcess> spawn_server(const RunConfig& config,
                                            const std::string& store_dir,
                                            bool recover) {
  auto spawned = ServerProcess::spawn(config.self_exe,
                                      server_args(config, store_dir, recover));
  GEMS_CHECK_MSG(spawned.is_ok(), spawned.status().to_string().c_str());
  return std::move(spawned).value();
}

void shut_down(std::unique_ptr<ServerProcess>& server) {
  const Status s = server->shutdown();
  GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  server.reset();
}

struct Setups {
  std::unique_ptr<ServerProcess> server;  // the last one, still serving
  std::string store_dir;                  // its store directory
  std::vector<double> seconds;
  std::vector<double> bytes_per_row;
};

/// Set-up, timed on kSetups fresh children, each with a fresh store
/// directory.
Setups time_setups(const RunConfig& config) {
  Setups out;
  for (int i = 0; i < kSetups; ++i) {
    if (out.server != nullptr) {
      shut_down(out.server);
      std::filesystem::remove_all(out.store_dir);
    }
    out.store_dir = config.workdir + "/store" + std::to_string(i);
    out.server = spawn_server(config, out.store_dir, false);
    const ReadyLine& ready = out.server->ready();
    out.seconds.push_back(out.server->ready_seconds());
    out.bytes_per_row.push_back(static_cast<double>(ready.rss_kb) * 1024.0 /
                                static_cast<double>(ready.rows));
  }
  return out;
}

/// Durability: every acknowledged row, and the same Q1 bytes, after a
/// shutdown and a restart on the same store directory. Stops `server` and
/// returns the restart's recovery time.
double check_recovery(const RunConfig& config,
                      std::unique_ptr<ServerProcess>& server,
                      const std::string& store_dir, std::int64_t expected_rows,
                      Report& report) {
  const std::string& q1 = named_query("Q1").text;
  relational::ParamMap q1_params;
  q1_params.emplace("Country1", storage::Value::varchar("US"));
  q1_params.emplace("Country2", storage::Value::varchar("DE"));
  auto q1_before = query_rendered(server->ready().port, q1, q1_params);
  auto count_before = reviews_count(server->ready().port);
  shut_down(server);
  server = spawn_server(config, store_dir, true);
  const double recovery_s = server->ready_seconds();
  auto q1_after = query_rendered(server->ready().port, q1, q1_params);
  auto count_after = reviews_count(server->ready().port);
  shut_down(server);
  if (!count_before.is_ok() || *count_before != expected_rows) {
    report.mismatch("Reviews count before shutdown is not base + acknowledged rows");
  }
  if (!count_after.is_ok() || *count_after != expected_rows) {
    report.mismatch("Reviews count after recovery is not base + acknowledged rows");
  }
  if (!q1_before.is_ok() || !q1_after.is_ok() || *q1_before != *q1_after) {
    report.mismatch("Q1 differs after recovery");
  }
  return recovery_s;
}

}  // namespace

Report run_timed(const RunConfig& config) {
  const Workload& w = *config.workload;
  Report report;
  report.mode = "timed";
  const bsbm::GeneratorConfig data = dataset_config(config);
  const bool writer = w.ingests_per_s > 0;

  // The oracle runs in memory (no store directory).
  auto oracle = bsbm::make_populated_database(data, server_options(w, ""));
  GEMS_CHECK_MSG(oracle.is_ok(), oracle.status().to_string().c_str());
  const std::size_t base_reviews = (*oracle)->table("Reviews").value()->num_rows();

  std::vector<std::string> batches;
  if (writer) {
    const auto count = static_cast<std::size_t>(
        std::ceil((config.warmup_s + config.seconds) * w.ingests_per_s) + 1);
    batches = write_review_batches(data, base_reviews, count, config.seed,
                                   config.workdir);
  }

  Setups setups = time_setups(config);
  std::unique_ptr<ServerProcess>& server = setups.server;
  const std::uint16_t port = server->ready().port;

  // Load: every client connects, then all start together.
  Phase phase;
  phase.start = Clock::now() + std::chrono::milliseconds(200);
  phase.window_start = phase.start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(config.warmup_s));
  phase.window_end = phase.window_start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(config.seconds));
  const std::size_t reservoir =
      (kOracleSamples + static_cast<std::size_t>(w.readers) - 1) /
      static_cast<std::size_t>(w.readers);
  std::vector<ReaderOutcome> readers(static_cast<std::size_t>(w.readers));
  WriterOutcome writes;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < w.readers; ++c) {
      threads.emplace_back([&, c] {
        readers[static_cast<std::size_t>(c)] =
            run_reader(config, data, port, c, phase, reservoir);
      });
    }
    if (writer) {
      threads.emplace_back([&] {
        writes = run_writer(port, w.ingests_per_s, batches, phase);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double peak_rss_mib = static_cast<double>(server->peak_rss_kb()) / 1024.0;

  std::vector<Completion> completions;
  std::vector<Sample> samples;
  for (auto& r : readers) {
    completions.insert(completions.end(), r.completions.begin(), r.completions.end());
    report.attempted += r.attempted;
    report.failed += r.failed;
    for (auto& s : r.samples) samples.push_back(std::move(s));
  }
  report.attempted += writes.attempted;
  report.failed += writes.failed;
  // Every operation of these workloads succeeds on a working server. A
  // failed one fails the run: a closed-loop reader whose query errors
  // early sends its next request sooner, which would read as a gain.
  if (report.failed > 0) {
    report.mismatch(std::to_string(report.failed) + " of " +
                    std::to_string(report.attempted) + " operations failed");
  }

  double recovery_s = 0;
  if (writer) {
    recovery_s = check_recovery(
        config, server, setups.store_dir,
        static_cast<std::int64_t>(base_reviews + writes.acked * kBatchRows), report);
  } else {
    shut_down(server);
  }

  if (samples.size() < std::min<std::size_t>(kOracleSamples, completions.size())) {
    report.mismatch("fewer sampled responses than the oracle check needs");
  }
  if (const std::size_t bad = check_with_oracle(**oracle, samples, writer); bad > 0) {
    report.mismatch(std::to_string(bad) + " of " + std::to_string(samples.size()) +
                    " sampled responses differ from the oracle");
  }

  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> by_query;
  for (const auto& c : completions) {
    latencies.push_back(c.latency_ms);
    by_query[*c.query].push_back(c.latency_ms);
  }
  report.add("setup_s", quantile(setups.seconds, 0.5), "s", setups.seconds.size());
  report.add("throughput_qps", static_cast<double>(latencies.size()) / config.seconds,
             "req/s", latencies.size());
  const std::size_t n = latencies.size();
  report.add("latency_p50_ms", quantile(latencies, 0.50), "ms", n);
  report.add("latency_p95_ms", quantile(latencies, 0.95), "ms", n);
  report.add("latency_p99_ms", quantile(latencies, 0.99), "ms", n);
  report.add("peak_rss_mb", peak_rss_mib, "MiB", 1);
  report.add("resident_bytes_per_row", quantile(setups.bytes_per_row, 0.5), "B/row",
             setups.bytes_per_row.size());
  report.add("error_rate",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             "ratio", report.attempted);
  report.add("load.samples", static_cast<double>(n), "count", n);
  report.add("oracle.checked", static_cast<double>(samples.size()), "count",
             samples.size());
  for (auto& [query, values] : by_query) {
    report.add("latency_p50_ms." + query, quantile(values, 0.5), "ms", values.size());
  }
  if (writer) {
    const std::size_t m = writes.latencies_ms.size();
    report.add("ingest_p50_ms", quantile(writes.latencies_ms, 0.50), "ms", m);
    report.add("ingest_p90_ms", quantile(writes.latencies_ms, 0.90), "ms", m);
    report.add("recovery_s", recovery_s, "s", 1);
    report.add("load.writer_late_ms_max", writes.late_ms_max, "ms", writes.attempted);
    report.add("ingest.acked_rows", static_cast<double>(writes.acked * kBatchRows),
               "count", writes.acked);
  }
  report.context.emplace_back("readers", std::to_string(w.readers));
  return report;
}

}  // namespace gems::bench_e2e
