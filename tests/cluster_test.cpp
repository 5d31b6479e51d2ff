// Tests for gems::cluster — multi-process distributed execution over the
// wire: hostile BSP frame rejection, control payload codecs, the
// byte-identity oracle (socket BSP streams vs. the in-process simulated
// streams, Berlin workload at 2 and 4 ranks), distributed-vs-local result
// equality, local fallback for non-distributable networks, cluster
// metrics over the net stats verb, and partition-aware recovery (restart
// from a per-rank store directory skips the state sync; a rank killed
// mid-workload fails the job with a typed retryable kUnavailable and the
// rerun stream is byte-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bsbm/generator.hpp"
#include "bsbm/schema.hpp"
#include "cluster/bsp_wire.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/rank_worker.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/metrics.hpp"
#include "dist/dist_matcher.hpp"
#include "exec/lowering.hpp"
#include "graql/parser.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"

namespace gems::cluster {
namespace {

namespace fs = std::filesystem;

constexpr char kQuery[] =
    "select * from graph OfferVtx() --product--> ProductVtx() into table "
    "res1";
// Cross-predicate networks are not distributable (dist::distributable) —
// the coordinator declines with kUnimplemented and the local matcher runs.
constexpr char kFallbackQuery[] =
    "select * from graph def p: ProductVtx() --feature--> FeatureVtx() "
    "<--feature-- ProductVtx(id <> p.id) into table res2";

/// One populated Berlin database (N=300) shared by the whole test binary.
server::Database& berlin_db() {
  static auto db = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(300));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return std::move(built).value();
  }();
  return *db;
}

/// A cluster metric of the shared database. The `cluster.*` counters
/// count for the database's lifetime, so tests assert differences.
std::uint64_t cluster_metric(const std::string& name) {
  return metrics::value(berlin_db().metrics_snapshot(), "cluster." + name);
}

/// Deterministic rendering for result-equality assertions.
std::string render(const std::vector<exec::StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += r.message + "\n";
    if (r.table != nullptr) out += r.table->to_string(1u << 20);
  }
  return out;
}

/// An in-thread rank worker (same body the shell's --cluster-rank mode
/// runs) — lets the oracle tests drive real sockets without forking.
struct WorkerThread {
  explicit WorkerThread(RankWorkerOptions options)
      : worker(std::move(options)) {}

  void start() {
    thread = std::thread([this] { result = worker.run(); });
  }
  void join() {
    if (thread.joinable()) thread.join();
  }

  RankWorker worker;
  std::thread thread;
  Status result = internal_error("worker never ran");
};

RankWorkerOptions worker_options(std::uint16_t port, std::uint32_t rank,
                                 std::string store_dir = "") {
  RankWorkerOptions opt;
  opt.coordinator_port = port;
  opt.rank = rank;
  opt.store_dir = std::move(store_dir);
  opt.worker_name = "cluster-test-rank" + std::to_string(rank);
  return opt;
}

/// Simulated (in-process) per-rank transcripts for `text` on `db` — the
/// reference side of the byte-identity oracle.
std::vector<std::vector<std::uint8_t>> simulated_transcripts(
    server::Database& db, const std::string& text, std::size_t ranks) {
  auto stmt = graql::parse_statement(text);
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
  auto resolver = [](const std::string&) -> Result<exec::SubgraphPtr> {
    return not_found("no subgraphs in the oracle query");
  };
  auto lowered =
      exec::lower_graph_query(q, db.graph(), resolver, {}, db.pool());
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  std::vector<std::vector<std::uint8_t>> transcripts;
  auto match = dist::match_network_distributed(
      lowered->networks[0], db.graph(), db.pool(), ranks, /*stats=*/nullptr,
      /*intra_pool=*/nullptr, &transcripts);
  GEMS_CHECK_MSG(match.is_ok(), match.status().to_string().c_str());
  return transcripts;
}

// ---- Hostile wire frames ---------------------------------------------------

/// A connected loopback socket pair (attacker end + victim end).
struct LoopbackPair {
  net::Socket listener;
  net::Socket attacker;
  net::Socket victim;

  void open() {
    auto listen = net::tcp_listen("127.0.0.1", 0);
    ASSERT_TRUE(listen.is_ok()) << listen.status().to_string();
    listener = std::move(listen).value();
    auto port = net::local_port(listener);
    ASSERT_TRUE(port.is_ok());
    auto connect = net::tcp_connect("127.0.0.1", port.value());
    ASSERT_TRUE(connect.is_ok()) << connect.status().to_string();
    attacker = std::move(connect).value();
    auto accepted = net::tcp_accept(listener);
    ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
    victim = std::move(accepted).value();
  }
};

/// Builds a valid frame image, then lets a test corrupt it.
std::vector<std::uint8_t> valid_frame_bytes() {
  BspFrame frame;
  frame.kind = BspKind::kData;
  frame.from = 1;
  frame.dest = 0;
  frame.tag = 7;
  frame.payload = {1, 2, 3, 4, 5};
  return encode_bsp_frame(frame);
}

TEST(BspWireTest, FrameRoundTrips) {
  LoopbackPair pair;
  pair.open();
  BspFrame frame;
  frame.kind = BspKind::kData;
  frame.from = 2;
  frame.dest = 1;
  frame.tag = -102;  // collective tags are negative
  frame.payload = {9, 8, 7};
  ASSERT_TRUE(send_bsp_frame(pair.attacker, frame).is_ok());
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got->kind, BspKind::kData);
  EXPECT_EQ(got->from, 2u);
  EXPECT_EQ(got->dest, 1u);
  EXPECT_EQ(got->tag, -102);
  EXPECT_EQ(got->payload, frame.payload);
  EXPECT_EQ(frame.wire_size(), kBspHeaderBytes + 3);
}

TEST(BspWireTest, RejectsBadMagic) {
  LoopbackPair pair;
  pair.open();
  std::vector<std::uint8_t> bytes = valid_frame_bytes();
  bytes[0] = 0xFF;
  ASSERT_TRUE(net::send_all(pair.attacker, bytes).is_ok());
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_NE(got.status().message().find("byte offset 0"),
            std::string::npos);
}

TEST(BspWireTest, RejectsWrongVersion) {
  LoopbackPair pair;
  pair.open();
  std::vector<std::uint8_t> bytes = valid_frame_bytes();
  bytes[4] = 0x7E;  // version lives at offset 4
  ASSERT_TRUE(net::send_all(pair.attacker, bytes).is_ok());
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_NE(got.status().message().find("byte offset 4"),
            std::string::npos);
}

TEST(BspWireTest, RejectsUnknownKind) {
  LoopbackPair pair;
  pair.open();
  std::vector<std::uint8_t> bytes = valid_frame_bytes();
  bytes[6] = 0xEE;  // kind lives at offset 6
  ASSERT_TRUE(net::send_all(pair.attacker, bytes).is_ok());
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_NE(got.status().message().find("byte offset 6"),
            std::string::npos);
}

TEST(BspWireTest, RejectsOversizedLengthBeforeAllocating) {
  LoopbackPair pair;
  pair.open();
  // A hostile header announcing a 3.9 GiB payload; the reader must reject
  // on the declared length alone — only the 28 header bytes ever arrive,
  // so accepting would mean a giant allocation followed by a hung read.
  std::vector<std::uint8_t> header;
  ByteWriter w(header);
  w.u32(kBspMagic);
  w.u16(kBspVersion);
  w.u8(static_cast<std::uint8_t>(BspKind::kData));
  w.u8(0);
  w.u32(1);
  w.u32(0);
  w.u32(0);
  w.u32(0xEFFFFFFFu);  // payload_len
  w.u32(0);            // crc
  ASSERT_TRUE(net::send_all(pair.attacker, header).is_ok());
  auto got = recv_bsp_frame(pair.victim, /*max_frame_bytes=*/1 << 20);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_NE(got.status().message().find("frame budget"), std::string::npos);
  EXPECT_NE(got.status().message().find("byte offset 20"),
            std::string::npos);
}

TEST(BspWireTest, RejectsCrcMismatch) {
  LoopbackPair pair;
  pair.open();
  std::vector<std::uint8_t> bytes = valid_frame_bytes();
  bytes.back() ^= 0x01;  // flip a payload bit; header CRC now disagrees
  ASSERT_TRUE(net::send_all(pair.attacker, bytes).is_ok());
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_NE(got.status().message().find("CRC mismatch"), std::string::npos);
  EXPECT_NE(got.status().message().find("data"), std::string::npos);
}

TEST(BspWireTest, TruncatedFrameIsATransportError) {
  LoopbackPair pair;
  pair.open();
  std::vector<std::uint8_t> bytes = valid_frame_bytes();
  bytes.resize(bytes.size() - 2);  // drop the last two payload bytes
  ASSERT_TRUE(net::send_all(pair.attacker, bytes).is_ok());
  pair.attacker.close();
  auto got = recv_bsp_frame(pair.victim, kDefaultMaxBspFrameBytes);
  ASSERT_FALSE(got.is_ok());
  EXPECT_NE(got.status().code(), StatusCode::kOk);
}

TEST(BspWireTest, ControlPayloadsRoundTrip) {
  HelloPayload hello{3, 0xDEADBEEFu, "worker-three"};
  auto hello2 = decode_hello(encode_hello(hello));
  ASSERT_TRUE(hello2.is_ok());
  EXPECT_EQ(hello2->rank, 3u);
  EXPECT_EQ(hello2->state_crc, 0xDEADBEEFu);
  EXPECT_EQ(hello2->worker_name, "worker-three");

  WelcomePayload welcome{4, true};
  auto welcome2 = decode_welcome(encode_welcome(welcome));
  ASSERT_TRUE(welcome2.is_ok());
  EXPECT_EQ(welcome2->num_ranks, 4u);
  EXPECT_TRUE(welcome2->sync_needed);

  JobPayload job;
  job.job_id = 42;
  job.num_ranks = 2;
  job.network_index = 1;
  job.record_transcript = true;
  job.ir = {1, 2, 3};
  job.params = {4, 5};
  auto job2 = decode_job(encode_job(job));
  ASSERT_TRUE(job2.is_ok());
  EXPECT_EQ(job2->job_id, 42u);
  EXPECT_EQ(job2->network_index, 1u);
  EXPECT_TRUE(job2->record_transcript);
  EXPECT_EQ(job2->ir, job.ir);
  EXPECT_EQ(job2->params, job.params);

  JobDonePayload done;
  done.job_id = 42;
  done.messages = 7;
  done.payload_bytes = 100;
  done.wire_bytes = 240;
  done.activations = 5;
  done.supersteps = 3;
  done.stall_us = 999;
  done.transcript = {6, 6, 6};
  done.domains = {7};
  auto done2 = decode_job_done(encode_job_done(done));
  ASSERT_TRUE(done2.is_ok());
  EXPECT_EQ(done2->job_id, 42u);
  EXPECT_EQ(done2->messages, 7u);
  EXPECT_EQ(done2->supersteps, 3u);
  EXPECT_EQ(done2->transcript, done.transcript);
  EXPECT_EQ(done2->domains, done.domains);

  const Status reported =
      decode_error(encode_error(unavailable("rank fell over")));
  EXPECT_EQ(reported.code(), StatusCode::kUnavailable);
  // An OK status inside an error frame is itself a protocol violation.
  EXPECT_EQ(decode_error(encode_error(Status::ok())).code(),
            StatusCode::kParseError);
}

// ---- Byte-identity oracle --------------------------------------------------

void run_oracle(std::size_t ranks) {
  server::Database& db = berlin_db();
  CoordinatorOptions copt;
  copt.num_ranks = ranks;
  copt.record_transcripts = true;
  copt.rank_wait_timeout_ms = 20000;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());

  std::vector<std::unique_ptr<WorkerThread>> workers;
  for (std::size_t r = 0; r < ranks; ++r) {
    workers.push_back(std::make_unique<WorkerThread>(
        worker_options(coordinator.port(), static_cast<std::uint32_t>(r))));
    workers.back()->start();
  }
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();

  const std::string query = std::string(kQuery) + ";";
  const std::uint64_t jobs_before = cluster_metric("jobs");
  auto distributed = db.run_script(query);
  ASSERT_TRUE(distributed.is_ok()) << distributed.status().to_string();
  EXPECT_EQ(cluster_metric("jobs") - jobs_before, 1u);

  const std::vector<std::vector<std::uint8_t>> wire =
      coordinator.last_transcripts();
  ASSERT_EQ(wire.size(), ranks);

  const std::vector<std::vector<std::uint8_t>> sim =
      simulated_transcripts(db, kQuery, ranks);
  ASSERT_EQ(sim.size(), ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    EXPECT_FALSE(sim[r].empty()) << "rank " << r;
    EXPECT_EQ(wire[r], sim[r])
        << "BSP send stream of rank " << r
        << " diverged between socket and simulated transports";
  }

  coordinator.shutdown();
  for (auto& w : workers) {
    w->join();
    EXPECT_TRUE(w->result.is_ok()) << w->result.to_string();
    EXPECT_EQ(w->worker.jobs_run(), 1u);
  }
}

TEST(ClusterOracleTest, SocketStreamMatchesSimulatedAt2Ranks) {
  run_oracle(2);
}

TEST(ClusterOracleTest, SocketStreamMatchesSimulatedAt4Ranks) {
  run_oracle(4);
}

TEST(ClusterOracleTest, DistributedReadsBesideDeltaIngestsMatchLocal) {
  // Reads pin an epoch and the ranks sync from it; the merge of the ranks'
  // domains must use that same epoch, not the live graph an ingest is
  // extending. Every distributed answer must equal a local run at one of
  // the states the ingests pass through.
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gems_cluster_ingest_oracle";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(150, 9);
  constexpr int kBatches = 3;
  for (int b = 0; b < kBatches; ++b) {
    std::ofstream csv(dir / ("offers" + std::to_string(b) + ".csv"));
    for (int k = 0; k < 40; ++k) {
      const std::size_t i = static_cast<std::size_t>(b * 40 + k);
      csv << "o" << 90000 + i << ",Offer,"
          << bsbm::product_id((i * 7) % config.num_products) << ","
          << bsbm::vendor_id(i % config.num_vendors) << "," << 10 + i
          << ".5,2008-01-01,2008-02-01," << 1 + i % 14
          << ",web,gen,2008-01-05\n";
    }
  }
  auto ingest = [](int b) {
    return "ingest table Offers 'offers" + std::to_string(b) + ".csv'";
  };
  const std::string query = std::string(kQuery) + ";";
  server::DatabaseOptions options;
  options.data_dir = dir.string();

  std::vector<std::string> states;  // local answer after each ingest
  {
    auto local = bsbm::make_populated_database(config, options);
    ASSERT_TRUE(local.is_ok()) << local.status().to_string();
    for (int b = 0; b <= kBatches; ++b) {
      auto r = (*local)->run_script(query);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      states.push_back(render(r.value()));
      if (b < kBatches) {
        ASSERT_TRUE((*local)->run_script(ingest(b)).is_ok());
      }
    }
  }
  ASSERT_EQ(std::set<std::string>(states.begin(), states.end()).size(),
            states.size());  // every ingest changes the answer

  auto built = bsbm::make_populated_database(config, options);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  server::Database& db = **built;
  CoordinatorOptions copt;
  copt.num_ranks = 2;
  copt.rank_wait_timeout_ms = 20000;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());
  WorkerThread w0(worker_options(coordinator.port(), 0));
  WorkerThread w1(worker_options(coordinator.port(), 1));
  w0.start();
  w1.start();
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();

  // Each ingest lands while a distributed read is in flight: the writer
  // waits for the next read to start, then gives it a moment to pin.
  std::atomic<int> reads_started{0};
  std::atomic<bool> ingesting{true};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      while (reads_started.load() <= b) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      auto r = db.run_script(ingest(b));
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    }
    ingesting = false;
  });
  auto matches_a_state = [&](const std::string& got) {
    return std::find(states.begin(), states.end(), got) != states.end();
  };
  while (ingesting.load()) {
    const int read = reads_started.fetch_add(1);
    auto r = db.run_script(query);
    // No ASSERT here: the writer waits on this loop.
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (r.is_ok()) {
      EXPECT_TRUE(matches_a_state(render(r.value())))
          << "read " << read << " matches no local state";
    }
  }
  writer.join();
  auto last = db.run_script(query);
  ASSERT_TRUE(last.is_ok()) << last.status().to_string();
  EXPECT_EQ(render(last.value()), states.back());
  EXPECT_GT(metrics::value(db.metrics_snapshot(), "cluster.jobs"), 0u);

  coordinator.shutdown();
  w0.join();
  w1.join();
  EXPECT_TRUE(w0.result.is_ok()) << w0.result.to_string();
  EXPECT_TRUE(w1.result.is_ok()) << w1.result.to_string();
  fs::remove_all(dir);
}

// ---- Results and fallback --------------------------------------------------

TEST(ClusterTest, DistributedResultsMatchLocal) {
  server::Database& db = berlin_db();
  const std::string query = std::string(kQuery) + ";";
  auto local = db.run_script(query);
  ASSERT_TRUE(local.is_ok()) << local.status().to_string();

  CoordinatorOptions copt;
  copt.num_ranks = 2;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());
  WorkerThread w0(worker_options(coordinator.port(), 0));
  WorkerThread w1(worker_options(coordinator.port(), 1));
  w0.start();
  w1.start();
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();

  const std::uint64_t jobs_before = cluster_metric("jobs");
  auto distributed = db.run_script(query);
  ASSERT_TRUE(distributed.is_ok()) << distributed.status().to_string();
  EXPECT_EQ(cluster_metric("jobs") - jobs_before, 1u);
  EXPECT_EQ(render(distributed.value()), render(local.value()));

  coordinator.shutdown();
  w0.join();
  w1.join();
}

TEST(ClusterTest, NonDistributableNetworkFallsBackLocally) {
  server::Database& db = berlin_db();
  CoordinatorOptions copt;
  copt.num_ranks = 2;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());
  WorkerThread w0(worker_options(coordinator.port(), 0));
  WorkerThread w1(worker_options(coordinator.port(), 1));
  w0.start();
  w1.start();
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();

  const std::uint64_t jobs_before = cluster_metric("jobs");
  const std::uint64_t fallbacks_before = cluster_metric("fallbacks");
  auto results = db.run_script(std::string(kFallbackQuery) + ";");
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_EQ(cluster_metric("jobs") - jobs_before, 0u);
  EXPECT_GE(cluster_metric("fallbacks") - fallbacks_before, 1u);

  coordinator.shutdown();
  w0.join();
  w1.join();
}

TEST(ClusterTest, MetricsTravelTheStatsVerb) {
  server::Database& db = berlin_db();
  CoordinatorOptions copt;
  copt.num_ranks = 2;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());
  WorkerThread w0(worker_options(coordinator.port(), 0));
  WorkerThread w1(worker_options(coordinator.port(), 1));
  w0.start();
  w1.start();
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();
  ASSERT_TRUE(db.run_script(std::string(kQuery) + ";").is_ok());

  net::Server server(db);
  ASSERT_TRUE(server.start().is_ok());
  net::ClientOptions client_options;
  client_options.port = server.port();
  net::Client client(client_options);
  ASSERT_TRUE(client.connect().is_ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(metrics::value(*stats, "cluster.ranks"), 2u);
  EXPECT_GE(metrics::value(*stats, "cluster.jobs"), 1u);
  EXPECT_EQ(metrics::value(*stats, "cluster.rank.1.connected"), 1u);
  EXPECT_GT(metrics::value(*stats, "cluster.rank.1.messages"), 0u);
  EXPECT_NE(metrics::render(*stats, "cluster.").find("cluster.rank.1.jobs"),
            std::string::npos);
  client.disconnect();
  server.stop();

  coordinator.shutdown();
  w0.join();
  w1.join();
}

TEST(ClusterTest, RankRecordsOfADetachedCoordinatorStayAsHistory) {
  // `cluster.*` records live as long as the database. Once a coordinator
  // detaches, `cluster.ranks` is 0 and its per-rank records stop moving; a
  // later coordinator with fewer ranks leaves the higher ranks' records
  // as they were, disconnected.
  server::Database& db = berlin_db();
  const std::string query = std::string(kQuery) + ";";
  {
    CoordinatorOptions copt;
    copt.num_ranks = 2;
    Coordinator coordinator(db, copt);
    ASSERT_TRUE(coordinator.start().is_ok());
    WorkerThread w0(worker_options(coordinator.port(), 0));
    WorkerThread w1(worker_options(coordinator.port(), 1));
    w0.start();
    w1.start();
    ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
    coordinator.attach();
    ASSERT_TRUE(db.run_script(query).is_ok());
    coordinator.shutdown();
    w0.join();
    w1.join();
  }
  const std::uint64_t rank1_jobs = cluster_metric("rank.1.jobs");
  const std::uint64_t rank1_messages = cluster_metric("rank.1.messages");
  const std::uint64_t rank0_jobs = cluster_metric("rank.0.jobs");
  EXPECT_EQ(cluster_metric("ranks"), 0u);
  EXPECT_EQ(cluster_metric("rank.0.connected"), 0u);
  EXPECT_EQ(cluster_metric("rank.1.connected"), 0u);
  EXPECT_GE(rank1_jobs, 1u);

  CoordinatorOptions copt;
  copt.num_ranks = 1;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());
  WorkerThread w0(worker_options(coordinator.port(), 0));
  w0.start();
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();
  const std::uint64_t jobs_before = cluster_metric("jobs");
  ASSERT_TRUE(db.run_script(query).is_ok());
  EXPECT_EQ(cluster_metric("jobs") - jobs_before, 1u);
  EXPECT_EQ(cluster_metric("ranks"), 1u);
  EXPECT_EQ(cluster_metric("rank.0.connected"), 1u);
  EXPECT_EQ(cluster_metric("rank.0.jobs") - rank0_jobs, 1u);
  EXPECT_EQ(cluster_metric("rank.1.connected"), 0u);
  EXPECT_EQ(cluster_metric("rank.1.jobs"), rank1_jobs);
  EXPECT_EQ(cluster_metric("rank.1.messages"), rank1_messages);

  coordinator.shutdown();
  w0.join();
  EXPECT_EQ(cluster_metric("ranks"), 0u);
}

// ---- Recovery --------------------------------------------------------------

/// Per-test scratch directory (mirrors store_test's TempDir idiom).
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / tag) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string rank_dir(int r) const {
    return (path / ("rank" + std::to_string(r))).string();
  }
  fs::path path;
};

TEST(ClusterRecoveryTest, RestartFromStoreDirSkipsSyncAndStreamsMatch) {
  server::Database& db = berlin_db();
  TempDir dir("cluster_recovery_inproc");

  // Warm the catalog: the query publishes `res1`, so its first run
  // changes the state image. Pre-creating it makes reruns re-publish
  // identical bytes, keeping the image (and its CRC) stable across the
  // two sessions — which is what the restart fast path keys on.
  ASSERT_TRUE(db.run_script(std::string(kQuery) + ";").is_ok());

  // Session 1: stateless workers are synced (one image each), run a job.
  std::vector<std::vector<std::uint8_t>> first_transcripts;
  {
    CoordinatorOptions copt;
    copt.num_ranks = 2;
    copt.record_transcripts = true;
    Coordinator coordinator(db, copt);
    ASSERT_TRUE(coordinator.start().is_ok());
    WorkerThread w0(worker_options(coordinator.port(), 0, dir.rank_dir(0)));
    WorkerThread w1(worker_options(coordinator.port(), 1, dir.rank_dir(1)));
    w0.start();
    w1.start();
    ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
    EXPECT_EQ(coordinator.sync_count(), 2u);
    coordinator.attach();
    ASSERT_TRUE(db.run_script(std::string(kQuery) + ";").is_ok());
    first_transcripts = coordinator.last_transcripts();
    coordinator.shutdown();
    w0.join();
    w1.join();
    EXPECT_FALSE(w0.worker.recovered());
  }

  // Session 2: workers recover their image from disk, greet with its CRC,
  // and the coordinator ships nothing.
  {
    CoordinatorOptions copt;
    copt.num_ranks = 2;
    copt.record_transcripts = true;
    Coordinator coordinator(db, copt);
    ASSERT_TRUE(coordinator.start().is_ok());
    WorkerThread w0(worker_options(coordinator.port(), 0, dir.rank_dir(0)));
    WorkerThread w1(worker_options(coordinator.port(), 1, dir.rank_dir(1)));
    w0.start();
    w1.start();
    ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
    EXPECT_EQ(coordinator.sync_count(), 0u) << "restart re-shipped state";
    coordinator.attach();
    ASSERT_TRUE(db.run_script(std::string(kQuery) + ";").is_ok());
    EXPECT_EQ(coordinator.last_transcripts(), first_transcripts)
        << "rerun BSP stream not byte-identical after recovery";
    coordinator.shutdown();
    w0.join();
    w1.join();
    EXPECT_TRUE(w0.worker.recovered());
    EXPECT_TRUE(w1.worker.recovered());
  }
}

/// Launches the graql_shell binary as a real rank worker process.
/// posix_spawn, not fork+exec: this test process is heavily
/// multi-threaded (coordinator reader/writer threads), and a fork child
/// can deadlock on an allocator lock another thread held at fork time
/// before it ever reaches exec — posix_spawn runs no user code in the
/// child. (Observed as a flaky admission timeout under TSan.)
pid_t spawn_rank_process(std::uint16_t port, int rank,
                         const std::string& data_dir) {
  const std::string target = "127.0.0.1:" + std::to_string(port);
  const std::string rank_arg = std::to_string(rank);
  std::vector<char*> argv;
  const char* args[] = {GEMS_SHELL_PATH, "--cluster-rank",
                        rank_arg.c_str(), "--connect", target.c_str(),
                        "--data-dir", data_dir.c_str()};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  argv.push_back(nullptr);
  pid_t pid = -1;
  if (::posix_spawn(&pid, GEMS_SHELL_PATH, nullptr, nullptr, argv.data(),
                    environ) != 0) {
    return -1;
  }
  return pid;
}

TEST(ClusterRecoveryTest, KilledRankFailsJobTypedThenRecovers) {
  server::Database& db = berlin_db();
  TempDir dir("cluster_recovery_kill");

  const std::string query = std::string(kQuery) + ";";
  // Warm the catalog (see RestartFromStoreDirSkipsSyncAndStreamsMatch):
  // keeps the state image CRC-stable across the runs below.
  ASSERT_TRUE(db.run_script(query).is_ok());

  CoordinatorOptions copt;
  copt.num_ranks = 2;
  copt.record_transcripts = true;
  // Long enough for two spawned (possibly sanitizer-instrumented)
  // processes to start, connect and apply their state sync; also the
  // dead-rank wait, so keep it well under the ctest timeout.
  copt.rank_wait_timeout_ms = 10000;
  Coordinator coordinator(db, copt);
  ASSERT_TRUE(coordinator.start().is_ok());

  const pid_t rank0 =
      spawn_rank_process(coordinator.port(), 0, dir.rank_dir(0));
  pid_t rank1 = spawn_rank_process(coordinator.port(), 1, dir.rank_dir(1));
  ASSERT_GT(rank0, 0);
  ASSERT_GT(rank1, 0);

  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  coordinator.attach();

  auto first = db.run_script(query);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::vector<std::vector<std::uint8_t>> first_transcripts =
      coordinator.last_transcripts();
  const std::uint64_t syncs_before_kill = coordinator.sync_count();

  // Kill rank 1 between jobs; the next distributed match must fail with
  // the typed retryable kUnavailable (net::Client / the shell retry it).
  ASSERT_EQ(::kill(rank1, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(rank1, &wstatus, 0), rank1);
  auto while_dead = db.run_script(query);
  ASSERT_FALSE(while_dead.is_ok());
  EXPECT_EQ(while_dead.status().code(), StatusCode::kUnavailable);

  // Restart from the same per-rank store directory: the recovered image's
  // CRC matches, so no new state sync — and the rerun stream is
  // byte-identical to the uninterrupted run.
  rank1 = spawn_rank_process(coordinator.port(), 1, dir.rank_dir(1));
  ASSERT_GT(rank1, 0);
  ASSERT_TRUE(coordinator.wait_for_ranks().is_ok());
  EXPECT_EQ(coordinator.sync_count(), syncs_before_kill)
      << "restarted rank re-shipped state despite an intact store dir";

  auto rerun = db.run_script(query);
  ASSERT_TRUE(rerun.is_ok()) << rerun.status().to_string();
  EXPECT_EQ(coordinator.last_transcripts(), first_transcripts)
      << "post-recovery BSP stream not byte-identical";
  EXPECT_EQ(render(rerun.value()), render(first.value()));

  coordinator.shutdown();
  EXPECT_EQ(::waitpid(rank0, &wstatus, 0), rank0);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  EXPECT_EQ(::waitpid(rank1, &wstatus, 0), rank1);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
}

}  // namespace
}  // namespace gems::cluster
