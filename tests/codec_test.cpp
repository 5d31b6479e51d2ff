// Golden bytes for every binary encoder: the size and CRC-32 of each
// encoder's output on fixed inputs — script IR and parameter maps, one
// request and one response payload per net verb plus a frame header,
// GBSP frames and control payloads, diagnostics, a stats body, a WAL file,
// the dist domain hand-back and a rank send transcript, and the Berlin
// snapshot image. A codec refactor must leave every entry unchanged; on
// a mismatch the test prints the whole table as found.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "cluster/bsp_wire.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/metrics.hpp"
#include "dist/dist_matcher.hpp"
#include "exec/lowering.hpp"
#include "graql/diag.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "net/metrics.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"

namespace gems {
namespace {

namespace fs = std::filesystem;
using storage::Value;

struct Encoding {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

struct Golden {
  const char* name;
  std::size_t size;
  std::uint32_t crc;
};

// ---- Fixed inputs -----------------------------------------------------------

/// Every placeholder of the Berlin mix, plus one value of each tag kind.
relational::ParamMap golden_params() {
  relational::ParamMap params;
  params.emplace("Country1", Value::varchar("US"));
  params.emplace("Country2", Value::varchar("DE"));
  params.emplace("Product1", Value::varchar("p7"));
  params.emplace("Type1", Value::varchar("t3"));
  params.emplace("Producer1", Value::varchar("pr2"));
  params.emplace("Date1", Value::date(13900));
  params.emplace("flag", Value::boolean(true));
  params.emplace("limit", Value::int64(-42));
  params.emplace("ratio", Value::float64(0.375));
  params.emplace("missing", Value::null());
  return params;
}

std::vector<std::uint8_t> golden_ir(const std::string& text) {
  auto script = graql::parse_script(text);
  GEMS_CHECK_MSG(script.is_ok(), script.status().to_string().c_str());
  return graql::encode_script(script.value());
}

/// A result list with one value of every column kind, a NULL, an empty
/// table result and a server-side subgraph summary.
std::vector<exec::StatementResult> golden_results(StringPool& pool) {
  auto schema = storage::Schema::create({
      {"b", {storage::TypeKind::kBool, 0}},
      {"i", {storage::TypeKind::kInt64, 0}},
      {"d", {storage::TypeKind::kDouble, 0}},
      {"s", {storage::TypeKind::kVarchar, 12}},
      {"t", {storage::TypeKind::kDate, 0}},
  });
  GEMS_CHECK(schema.is_ok());
  auto table =
      std::make_shared<storage::Table>("R1", std::move(schema).value(), pool);
  const std::vector<std::vector<Value>> rows = {
      {Value::boolean(true), Value::int64(7), Value::float64(2.5),
       Value::varchar("alpha"), Value::date(13000)},
      {Value::boolean(false), Value::null(), Value::float64(-1.0),
       Value::varchar(""), Value::date(13001)}};
  for (const std::vector<Value>& row : rows) {
    GEMS_CHECK(table->append_row(row).is_ok());
  }
  std::vector<exec::StatementResult> results(3);
  results[0].kind = exec::StatementResult::Kind::kTable;
  results[0].table = table;
  results[0].into = graql::IntoKind::kTable;
  results[0].into_name = "R1";
  results[1].kind = exec::StatementResult::Kind::kSubgraph;
  results[1].subgraph = std::make_shared<exec::Subgraph>("G1");
  results[1].into = graql::IntoKind::kSubgraph;
  results[1].into_name = "G1";
  results[2].message = "ingested 2 rows";
  results[2].truncated = true;
  return results;
}

std::vector<server::CatalogEntry> golden_catalog() {
  using Kind = server::CatalogEntry::Kind;
  return {{Kind::kTable, "Products", 200, 51234},
          {Kind::kVertexType, "ProductVtx", 200, 4096},
          {Kind::kEdgeType, "product", 1000, 12000},
          {Kind::kSubgraph, "G1", 17, 0}};
}

std::vector<graql::Diagnostic> golden_diagnostics() {
  graql::Diagnostic error;
  error.severity = graql::Severity::kError;
  error.code = graql::DiagCode::kParseError;
  error.status_code = StatusCode::kParseError;
  error.span = {2, 5, 2, 11};
  error.message = "expected 'from'";
  error.fixit = "insert 'from'";
  graql::Diagnostic note;
  note.severity = graql::Severity::kNote;
  note.status_code = StatusCode::kInvalidArgument;
  note.span = {1, 1, 1, 1};
  note.message = "statement starts here";
  return {error, note};
}

metrics::Snapshot golden_stats() {
  metrics::Registry registry;
  registry.counter("access.writer.acquired").add(5);
  registry.gauge("cluster.rank.1.connected").set(1);
  registry.counter("cluster.rank.1.messages").add(38);
  registry.gauge("mvcc.pins.peak").set(4);
  metrics::Histogram& execute =
      registry.histogram("net.run_script.execute_us");
  execute.record(12);
  execute.record(3400);
  return registry.snapshot();
}

server::Database& berlin_db() {
  static auto db = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(200, 3));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return std::move(built).value();
  }();
  return *db;
}

const std::vector<std::uint8_t>& berlin2000_snapshot() {
  static const std::vector<std::uint8_t> image = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(2000, 3));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return (*built)->snapshot_bytes();
  }();
  return image;
}

/// A distributed match at two ranks on the Berlin graph: the merged
/// domains and each rank's recorded send stream.
struct DistRun {
  exec::ConstraintNetwork net;
  std::vector<exec::Domain> domains;
  std::vector<std::vector<std::uint8_t>> transcripts;
};

DistRun golden_dist_run() {
  server::Database& db = berlin_db();
  auto stmt = graql::parse_statement(
      "select * from graph ProductVtx(id = 'p7') <--product-- OfferVtx() "
      "into table r");
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
  auto resolver = [](const std::string&) -> Result<exec::SubgraphPtr> {
    return not_found("no subgraphs");
  };
  auto lowered =
      exec::lower_graph_query(q, db.graph(), resolver, {}, db.pool());
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  DistRun run;
  run.net = std::move(lowered->networks[0]);
  auto match = dist::match_network_distributed(
      run.net, db.graph(), db.pool(), 2, /*stats=*/nullptr, &run.transcripts);
  GEMS_CHECK_MSG(match.is_ok(), match.status().to_string().c_str());
  run.domains = std::move(match->domains);
  return run;
}

/// The WAL a durable database writes for two DDL statements and one
/// ingest: header, kStatement records and a kIngestRows record.
std::vector<std::uint8_t> golden_wal() {
  // Per process: ctest runs the golden and the sweep test side by side.
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("gems_codec_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream csv(dir / "people.csv");
    csv << "ada,36\ngrace,45\n";
  }
  std::vector<std::uint8_t> wal;
  {
    server::DatabaseOptions options;
    options.data_dir = dir.string();
    options.store_dir = (dir / "store").string();
    options.wal_fsync = false;
    server::Database db(options);
    auto r = db.run_script(
        "create table People(name varchar(16), age integer)\n"
        "create vertex Person(name) from table People\n");
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    r = db.run_script("ingest table People 'people.csv'\n");
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    auto bytes = store::read_file_bytes((dir / "store" / "wal.gwal").string());
    GEMS_CHECK_MSG(bytes.is_ok(), bytes.status().to_string().c_str());
    wal.assign(bytes->begin(), bytes->end());
  }
  fs::remove_all(dir);
  return wal;
}

/// The 20-byte header send_frame puts in front of a payload.
std::vector<std::uint8_t> golden_frame() {
  int fds[2];
  GEMS_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  net::Socket tx(fds[0]);
  net::Socket rx(fds[1]);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  GEMS_CHECK(net::send_frame(tx, net::Verb::kRunScript, /*is_response=*/true,
                             0x0102030405060708ull, payload)
                 .is_ok());
  std::vector<std::uint8_t> bytes(net::kFrameHeaderBytes + payload.size());
  GEMS_CHECK(net::recv_all(rx, bytes).is_ok());
  return bytes;
}

// ---- Response payloads ------------------------------------------------------

/// An encoded status followed by `body`'s fields.
std::vector<std::uint8_t> response(
    const Status& status, const std::function<void(ByteWriter&)>& body = {}) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  net::encode_status(status, w);
  if (body) body(w);
  return out;
}

// ---- The encodings ----------------------------------------------------------

std::vector<Encoding> golden_encodings() {
  std::vector<Encoding> out;
  auto add = [&](std::string name, std::vector<std::uint8_t> bytes) {
    out.push_back({std::move(name), std::move(bytes)});
  };

  // Script IR and parameters.
  for (const bsbm::NamedQuery& q : bsbm::all_queries()) {
    add("ir." + q.name, golden_ir(q.text));
  }
  const std::vector<std::uint8_t> params =
      graql::encode_params(golden_params());
  add("params", params);

  // Net: one request and one response per verb, plus a frame header.
  const std::vector<std::uint8_t> q2 = golden_ir(bsbm::berlin_q2());
  add("net.handshake.request",
      net::encode_handshake_request({net::kWireVersion, "golden-client"}));
  add("net.handshake.response", response(Status::ok(), [](auto& w) {
        w.bytes(net::encode_handshake_response(
            {net::kWireVersion, 77, "gems-graql"}));
      }));
  add("net.run_script.request",
      net::encode_script_request({q2, params, 2500}));
  StringPool pool;
  const std::vector<exec::StatementResult> results = golden_results(pool);
  add("net.run_script.response", response(Status::ok(), [&](auto& w) {
        net::encode_results(results, w);
      }));
  add("net.check.request", net::encode_script_request({q2, {}, 0}));
  add("net.check.response", response(Status::ok(), [](auto& w) {
        w.blob(graql::encode_diagnostics(golden_diagnostics()));
      }));
  add("net.explain.request", net::encode_script_request({q2, params, 0}));
  add("net.explain.response", response(Status::ok(), [](auto& w) {
        w.str("step 0: ProductVtx (200 candidates)");
      }));
  add("net.catalog.request", {});
  add("net.catalog.response", response(Status::ok(), [](auto& w) {
        net::encode_catalog(golden_catalog(), w);
      }));
  add("net.stats.request", {});
  add("net.stats.response", response(Status::ok(), [](auto& w) {
        std::vector<std::uint8_t> body;
        net::encode_snapshot(golden_stats(), body);
        w.bytes(body);
      }));
  add("net.cancel.request", net::encode_cancel_request({0xABCDEFull}));
  add("net.cancel.response", response(Status::ok()));
  add("net.shutdown.request", {});
  add("net.shutdown.response",
      response(parse_error("malformed frame at byte offset 3")));
  add("net.frame_header", golden_frame());

  // GBSP: a data frame and every control payload.
  cluster::BspFrame frame;
  frame.kind = cluster::BspKind::kData;
  frame.from = 1;
  frame.dest = 0;
  frame.tag = -101;
  frame.payload = {9, 8, 7, 6, 5};
  add("gbsp.frame", cluster::encode_bsp_frame(frame));
  add("gbsp.hello", cluster::encode_hello({1, 0xC0FFEEu, "rank-1"}));
  add("gbsp.welcome", cluster::encode_welcome({4, true}));
  cluster::JobPayload job;
  job.job_id = 12;
  job.num_ranks = 4;
  job.network_index = 1;
  job.record_transcript = true;
  job.ir = q2;
  job.params = params;
  add("gbsp.job", cluster::encode_job(job));
  cluster::JobDonePayload done;
  done.job_id = 12;
  done.messages = 30;
  done.payload_bytes = 4000;
  done.wire_bytes = 4840;
  done.activations = 500;
  done.supersteps = 6;
  done.stall_us = 1234;
  done.transcript = {1, 2, 3, 4};
  done.domains = {5, 6};
  add("gbsp.job_done", cluster::encode_job_done(done));
  add("gbsp.error",
      cluster::encode_error(unavailable("rank 2 lost its connection")));

  // Diagnostics and the stats body on their own.
  add("diag", graql::encode_diagnostics(golden_diagnostics()));
  std::vector<std::uint8_t> stats;
  net::encode_snapshot(golden_stats(), stats);
  add("stats", stats);

  // Store: a WAL file and the Berlin snapshot at scales 200 and 2000,
  // seed 3. Scale 2000 fills its tables across many 1024-row commits of
  // the generator's appenders.
  add("wal", golden_wal());
  add("snapshot.berlin200", berlin_db().snapshot_bytes());
  add("snapshot.berlin2000", berlin2000_snapshot());

  // Dist: the domain hand-back and the rank send streams.
  const DistRun run = golden_dist_run();
  std::vector<std::uint8_t> domains;
  dist::encode_domains(run.domains, domains);
  add("dist.domains", domains);
  for (std::size_t r = 0; r < run.transcripts.size(); ++r) {
    add("dist.transcript." + std::to_string(r), run.transcripts[r]);
  }
  return out;
}

// Recorded before the codecs moved onto common/bytes.hpp; the refactor
// must not change a single entry.
constexpr Golden kGolden[] = {
    {"ir.Q1", 819, 2638105287u},
    {"ir.Q2", 601, 1729213922u},
    {"ir.Q3", 768, 1433530338u},
    {"ir.Q4", 575, 3005887814u},
    {"ir.Q5", 508, 3666102403u},
    {"ir.Q6", 582, 4269213606u},
    {"ir.Q7", 696, 695270328u},
    {"ir.Q8", 837, 3913972778u},
    {"ir.Q9", 897, 2825393006u},
    {"params", 174, 828855558u},
    {"net.handshake.request", 19, 3407734934u},
    {"net.handshake.response", 30, 1797982798u},
    {"net.run_script.request", 787, 4175876840u},
    {"net.run_script.response", 217, 3643387948u},
    {"net.check.request", 613, 308061271u},
    {"net.check.response", 123, 2302416770u},
    {"net.explain.request", 787, 236490806u},
    {"net.explain.response", 45, 3279546738u},
    {"net.catalog.request", 0, 0u},
    {"net.catalog.response", 121, 3598640060u},
    {"net.stats.request", 0, 0u},
    {"net.stats.response", 523, 2945190646u},
    {"net.cancel.request", 8, 3787716546u},
    {"net.cancel.response", 6, 2982322595u},
    {"net.shutdown.request", 0, 0u},
    {"net.shutdown.response", 38, 1333882097u},
    {"net.frame_header", 23, 1043085458u},
    {"gbsp.frame", 33, 1867591477u},
    {"gbsp.hello", 18, 538928133u},
    {"gbsp.welcome", 5, 1151689035u},
    {"gbsp.job", 800, 1635120508u},
    {"gbsp.job_done", 70, 2730514114u},
    {"gbsp.error", 32, 3912040273u},
    {"diag", 113, 2945998573u},
    {"stats", 517, 615417833u},
    {"wal", 251, 2935829596u},
    {"snapshot.berlin200", 336925, 2944471296u},
    {"snapshot.berlin2000", 3201251, 3852771942u},
    {"dist.domains", 44, 749263383u},
    {"dist.transcript.0", 88, 3601321035u},
    {"dist.transcript.1", 124, 893424611u},
};

TEST(CodecGoldenTest, EveryEncoderEmitsTheRecordedBytes) {
  const std::vector<Encoding> encodings = golden_encodings();
  std::string table;
  bool all_match = encodings.size() == std::size(kGolden);
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const Encoding& e = encodings[i];
    const std::uint32_t crc = crc32(e.bytes);
    table += "    {\"" + e.name + "\", " + std::to_string(e.bytes.size()) +
             ", " + std::to_string(crc) + "u},\n";
    if (i >= std::size(kGolden)) continue;
    const Golden& g = kGolden[i];
    const bool match = e.name == g.name && e.bytes.size() == g.size &&
                       crc == g.crc;
    EXPECT_TRUE(match) << e.name << ": " << e.bytes.size() << " bytes, CRC "
                       << crc << "; recorded " << g.name << ": " << g.size
                       << " bytes, CRC " << g.crc;
    all_match = all_match && match;
  }
  EXPECT_TRUE(all_match) << "encodings as found:\n" << table;
}

TEST(CodecGoldenTest, BerlinSnapshotAtScale200) {
  const std::vector<std::uint8_t> image = berlin_db().snapshot_bytes();
  EXPECT_EQ(image.size(), 336925u);
  EXPECT_EQ(crc32(image), 2944471296u);
}

// snapshot.berlin2000 is built without an intra-node pool; this build fans
// the graph rebuild out over four workers and must give the same bytes.
TEST(CodecGoldenTest, BerlinSnapshotAtScale2000BuiltOnFourWorkers) {
  server::DatabaseOptions options;
  options.intra_node_threads = 4;
  auto built = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(2000, 3), options);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const std::vector<std::uint8_t> image = (*built)->snapshot_bytes();
  EXPECT_EQ(image.size(), 3201251u);
  EXPECT_EQ(crc32(image), 3852771942u);
}

// ---- Mutation sweep ---------------------------------------------------------
// Every truncation and every single-bit flip of each golden encoding, fed
// to that encoding's decoder, must yield a value or a typed error — never
// a crash or undefined behavior (the ASan/UBSan job runs this test). The
// Berlin snapshots are left out: the smaller is 2.7 million flips, each a
// full-image CRC; store_test sweeps snapshot corruption at a stride instead.

struct Sweep {
  std::function<Status(std::span<const std::uint8_t>)> decode;
  /// Error codes the decoder may return; empty when the payload carries
  /// a status of its own, which a flip can turn into any code. A
  /// kParseError must name its byte offset.
  std::vector<StatusCode> codes;
};

template <typename T>
Status status_of(const Result<T>& result) {
  return result.status();
}

/// A net response: the encoded status, then the body `decode_body` reads.
Status decode_response(std::span<const std::uint8_t> bytes,
                       const std::function<Status(ByteReader&)>& decode_body) {
  ByteReader r = net::frame_reader(bytes);
  GEMS_RETURN_IF_ERROR(net::decode_status(r));
  return decode_body(r);
}

/// Feeds `bytes` to a receiver through a socket pair, then EOF.
Status through_socket(
    std::span<const std::uint8_t> bytes,
    const std::function<Status(const net::Socket&)>& receive) {
  int fds[2];
  GEMS_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  net::Socket tx(fds[0]);
  net::Socket rx(fds[1]);
  GEMS_CHECK(net::send_all(tx, bytes).is_ok());
  tx.shutdown();
  return receive(rx);
}

/// A recorded rank send stream: (to, tag, payload) records, each payload
/// decoded as the receiving rank body decodes it.
Status decode_transcript(std::span<const std::uint8_t> bytes,
                         const DistRun& run) {
  const graph::GraphView& graph = berlin_db().graph();
  ByteReader r(bytes, StatusCode::kParseError, "malformed transcript");
  while (!r.at_end()) {
    GEMS_RETURN_IF_ERROR(r.u32().status());  // destination rank
    GEMS_ASSIGN_OR_RETURN(std::uint32_t tag, r.u32());
    GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> payload, r.blob());
    switch (static_cast<std::int32_t>(tag)) {
      case 1: {  // dist_matcher.cpp kTagActivations
        exec::Domain support;
        for (graph::VertexTypeId t = 0; t < graph.num_vertex_types(); ++t) {
          support.sets.emplace(
              t, DynamicBitset(graph.vertex_type(t).num_vertices()));
        }
        GEMS_RETURN_IF_ERROR(dist::decode_activations(payload, support));
        break;
      }
      case 2: {  // dist_matcher.cpp kTagGather
        std::vector<exec::Domain> domains = run.domains;
        GEMS_RETURN_IF_ERROR(dist::decode_gather(payload, domains));
        break;
      }
      default: {  // allreduce_sum: one u64
        ByteReader value = dist::payload_reader(payload);
        GEMS_RETURN_IF_ERROR(value.u64().status());
        GEMS_RETURN_IF_ERROR(value.expect_end("collective value"));
      }
    }
  }
  return Status::ok();
}

/// The decoder of the golden encoding `name`; no decoder for the empty
/// request payloads and the snapshots.
std::optional<Sweep> sweep_for(const std::string& name, const DistRun& run,
                               StringPool& pool) {
  using Bytes = std::span<const std::uint8_t>;
  const std::vector<StatusCode> parse = {StatusCode::kParseError};
  if (name.starts_with("ir.")) {
    return Sweep{[=](Bytes b) { return status_of(graql::decode_script(b)); },
                 parse};
  }
  if (name == "params") {
    return Sweep{[=](Bytes b) { return status_of(graql::decode_params(b)); },
                 parse};
  }
  if (name == "net.handshake.request") {
    return Sweep{
        [=](Bytes b) { return status_of(net::decode_handshake_request(b)); },
        parse};
  }
  if (name == "net.handshake.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) {
                     return status_of(net::decode_handshake_response(r));
                   });
                 },
                 {}};
  }
  if (name == "net.run_script.request" || name == "net.check.request" ||
      name == "net.explain.request") {
    return Sweep{
        [=](Bytes b) { return status_of(net::decode_script_request(b)); },
        parse};
  }
  if (name == "net.cancel.request") {
    return Sweep{
        [=](Bytes b) { return status_of(net::decode_cancel_request(b)); },
        parse};
  }
  if (name == "net.run_script.response") {
    return Sweep{[&pool](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) {
                     return net::decode_results(r, pool).status();
                   });
                 },
                 {}};
  }
  if (name == "net.check.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) -> Status {
                     GEMS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> blob,
                                           r.blob());
                     return status_of(graql::decode_diagnostics(blob));
                   });
                 },
                 {}};
  }
  if (name == "net.explain.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) {
                     return status_of(r.str());
                   });
                 },
                 {}};
  }
  if (name == "net.catalog.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) {
                     return status_of(net::decode_catalog(r));
                   });
                 },
                 {}};
  }
  if (name == "net.stats.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(b, [&](ByteReader& r) {
                     return status_of(net::decode_snapshot(b.subspan(r.pos())));
                   });
                 },
                 {}};
  }
  if (name == "net.cancel.response" || name == "net.shutdown.response") {
    return Sweep{[=](Bytes b) {
                   return decode_response(
                       b, [](ByteReader&) { return Status::ok(); });
                 },
                 {}};
  }
  // A flipped length bit may claim up to the frame budget; keep it small.
  constexpr std::size_t kSweepFrameBytes = 1 << 16;
  const std::vector<StatusCode> frame = {StatusCode::kParseError,
                                         StatusCode::kUnavailable};
  if (name == "net.frame_header") {
    return Sweep{[=](Bytes b) {
                   return through_socket(b, [&](const net::Socket& s) {
                     return status_of(net::recv_frame(s, kSweepFrameBytes));
                   });
                 },
                 frame};
  }
  if (name == "gbsp.frame") {
    return Sweep{[=](Bytes b) {
                   return through_socket(b, [&](const net::Socket& s) {
                     return status_of(
                         cluster::recv_bsp_frame(s, kSweepFrameBytes));
                   });
                 },
                 frame};
  }
  if (name == "gbsp.hello") {
    return Sweep{[=](Bytes b) { return status_of(cluster::decode_hello(b)); },
                 parse};
  }
  if (name == "gbsp.welcome") {
    return Sweep{
        [=](Bytes b) { return status_of(cluster::decode_welcome(b)); },
        parse};
  }
  if (name == "gbsp.job") {
    return Sweep{[=](Bytes b) { return status_of(cluster::decode_job(b)); },
                 parse};
  }
  if (name == "gbsp.job_done") {
    return Sweep{
        [=](Bytes b) { return status_of(cluster::decode_job_done(b)); },
        parse};
  }
  if (name == "gbsp.error") {
    // decode_error returns the carried status: any code.
    return Sweep{[=](Bytes b) { return cluster::decode_error(b); }, {}};
  }
  if (name == "diag") {
    return Sweep{
        [=](Bytes b) { return status_of(graql::decode_diagnostics(b)); },
        parse};
  }
  if (name == "stats") {
    return Sweep{[=](Bytes b) { return status_of(net::decode_snapshot(b)); },
                 parse};
  }
  if (name == "wal") {
    const std::string path =
        (fs::path(::testing::TempDir()) /
         ("gems_codec_sweep_" + std::to_string(::getpid()) + ".gwal"))
            .string();
    return Sweep{[=](Bytes b) {
                   std::ofstream(path, std::ios::binary | std::ios::trunc)
                       .write(reinterpret_cast<const char*>(b.data()),
                              static_cast<std::streamsize>(b.size()));
                   const Status opened =
                       status_of(store::Wal::open(path, 0, false));
                   fs::remove(path);
                   return opened;
                 },
                 {StatusCode::kIoError}};
  }
  if (name == "dist.domains") {
    return Sweep{[&run](Bytes b) {
                   return status_of(dist::decode_domains(
                       b, run.net, berlin_db().graph()));
                 },
                 parse};
  }
  if (name.starts_with("dist.transcript.")) {
    return Sweep{[&run](Bytes b) { return decode_transcript(b, run); },
                 parse};
  }
  return std::nullopt;
}

void expect_typed(const Status& s, const Sweep& sweep,
                  const std::string& what) {
  if (s.is_ok() || sweep.codes.empty()) return;
  EXPECT_NE(std::find(sweep.codes.begin(), sweep.codes.end(), s.code()),
            sweep.codes.end())
      << what << ": " << s.to_string();
  if (s.code() == StatusCode::kParseError) {
    EXPECT_NE(s.message().find("byte offset"), std::string::npos)
        << what << ": " << s.to_string();
  }
}

TEST(CodecMutationTest, EveryTruncationAndBitFlipDecodesOrFailsTyped) {
  const DistRun run = golden_dist_run();
  StringPool pool;
  std::size_t swept = 0;
  for (const Encoding& e : golden_encodings()) {
    const std::optional<Sweep> sweep = sweep_for(e.name, run, pool);
    if (!sweep.has_value() || e.bytes.empty()) continue;
    ++swept;
    const std::span<const std::uint8_t> bytes(e.bytes);
    const Status whole = sweep->decode(bytes);
    if (!sweep->codes.empty()) {
      ASSERT_TRUE(whole.is_ok()) << e.name << ": " << whole.to_string();
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      expect_typed(sweep->decode(bytes.first(len)), *sweep,
                   e.name + " cut at " + std::to_string(len));
    }
    std::vector<std::uint8_t> flipped = e.bytes;
    for (std::size_t bit = 0; bit < 8 * flipped.size(); ++bit) {
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_typed(sweep->decode(flipped), *sweep,
                   e.name + " bit " + std::to_string(bit) + " flipped");
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  EXPECT_EQ(swept, std::size(kGolden) - 5);  // 3 empty requests, 2 snapshots
}

}  // namespace
}  // namespace gems
