// Tests for gems::net — the TCP wire for the front-end/backend hand-off:
// loopback round-trips of every verb, byte-identical results vs. the
// in-process Database, hostile-frame rejection, concurrent clients,
// deadlines, cancellation, and admission control under overload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "bsbm/generator.hpp"
#include "common/check.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "common/metrics.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"
#include "wire_oracle.hpp"

namespace gems::net {
namespace {

using exec::StatementResult;
using storage::Value;

relational::ParamMap berlin_params() {
  relational::ParamMap params;
  params.emplace("Country1", Value::varchar("US"));
  params.emplace("Country2", Value::varchar("DE"));
  params.emplace("Product1", Value::varchar("p0"));
  params.emplace("Type1", Value::varchar("t1"));
  return params;
}

/// One populated Berlin database shared by the whole test binary. Tests
/// that need exclusive server options start their own Server on it.
server::Database& shared_db() {
  static auto db = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(40, 7));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return std::move(built).value();
  }();
  return *db;
}

/// Renders result tables deterministically for byte-identity assertions.
std::string render_results(const std::vector<StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += "kind=" + std::to_string(static_cast<int>(r.kind));
    out += " message=" + r.message;
    out += " truncated=" + std::to_string(r.truncated ? 1 : 0);
    if (r.table != nullptr) {
      out += "\n" + r.table->to_string(1u << 20);
    }
    out += "\n--\n";
  }
  return out;
}

/// Raw wire connection for tests that pipeline frames or send hostile
/// bytes the Client would never produce.
struct RawConn {
  Socket sock;

  Status open(std::uint16_t port, bool handshake = true) {
    auto connected = tcp_connect("127.0.0.1", port);
    GEMS_RETURN_IF_ERROR(connected.status());
    sock = std::move(connected).value();
    GEMS_RETURN_IF_ERROR(set_recv_timeout(sock, 10000));
    if (!handshake) return Status::ok();
    GEMS_RETURN_IF_ERROR(
        send_frame(sock, Verb::kHandshake, /*is_response=*/false, 1,
                   encode_handshake_request({kWireVersion, "raw-test"})));
    auto frame = recv_frame(sock, kDefaultMaxFrameBytes);
    GEMS_RETURN_IF_ERROR(frame.status());
    ByteReader reader = frame_reader(frame->payload);
    return decode_status(reader);
  }

  /// Reads response frames until `n` are collected; returns status by id.
  std::map<std::uint64_t, Status> collect(std::size_t n) {
    std::map<std::uint64_t, Status> got;
    while (got.size() < n) {
      auto frame = recv_frame(sock, kDefaultMaxFrameBytes);
      if (!frame.is_ok()) {
        got.emplace(std::uint64_t(-1), frame.status());
        break;
      }
      ByteReader reader = frame_reader(frame->payload);
      got.emplace(frame->header.request_id, decode_status(reader));
    }
    return got;
  }
};

std::vector<std::uint8_t> raw_script_request(const std::string& text,
                                             std::uint32_t deadline_ms = 0) {
  auto script = graql::parse_script(text);
  GEMS_CHECK_MSG(script.is_ok(), script.status().to_string().c_str());
  ScriptRequest request;
  request.ir = graql::encode_script(script.value());
  request.params = graql::encode_params({});
  request.deadline_ms = deadline_ms;
  return encode_script_request(request);
}

Client make_client(std::uint16_t port) {
  ClientOptions options;
  options.port = port;
  options.connect_retries = 2;
  options.retry_backoff_ms = 20;
  return Client(options);
}

// ---- Every verb over loopback ---------------------------------------------

TEST(NetTest, RoundTripEveryVerb) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());  // handshake verb
  EXPECT_GT(client.session_id(), 0u);

  // run-script
  auto run = client.run_script("select id, label from table Products");
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  ASSERT_EQ(run->size(), 1u);
  ASSERT_NE(run->front().table, nullptr);
  EXPECT_EQ(run->front().table->num_rows(), 40u);

  // check-only: ok and error statuses both cross the wire typed
  EXPECT_TRUE(client.check_script("select id from table Products").is_ok());
  const Status remote = client.check_script("select nope from table Products");
  const Status direct = shared_db().check_script(
      "select nope from table Products");
  EXPECT_FALSE(remote.is_ok());
  EXPECT_EQ(remote.code(), direct.code());

  // explain matches the in-process plan rendering exactly
  auto remote_plan = client.explain("select id from table Products");
  auto direct_plan = shared_db().explain("select id from table Products");
  ASSERT_TRUE(remote_plan.is_ok()) << remote_plan.status().to_string();
  ASSERT_TRUE(direct_plan.is_ok());
  EXPECT_EQ(remote_plan.value(), direct_plan.value());

  // catalog matches the in-process catalog
  auto remote_catalog = client.catalog();
  ASSERT_TRUE(remote_catalog.is_ok()) << remote_catalog.status().to_string();
  const auto direct_catalog = shared_db().catalog();
  ASSERT_EQ(remote_catalog->size(), direct_catalog.size());
  for (std::size_t i = 0; i < direct_catalog.size(); ++i) {
    EXPECT_EQ((*remote_catalog)[i].name, direct_catalog[i].name);
    EXPECT_EQ((*remote_catalog)[i].kind, direct_catalog[i].kind);
    EXPECT_EQ((*remote_catalog)[i].instances, direct_catalog[i].instances);
    EXPECT_EQ((*remote_catalog)[i].byte_size, direct_catalog[i].byte_size);
  }

  // cancel is best-effort: unknown ids are accepted
  EXPECT_TRUE(client.cancel(99999).is_ok());

  // stats reflects the traffic above
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(metrics::value(*stats, "net.handshake.ok"), 1u);
  EXPECT_EQ(metrics::value(*stats, "net.run_script.ok"), 1u);
  // A faulty-but-parseable script is a *successful* check: the response
  // carries the diagnostic list, not an error status.
  EXPECT_EQ(metrics::value(*stats, "net.check.requests"), 2u);
  EXPECT_EQ(metrics::value(*stats, "net.check.errors"), 0u);
  EXPECT_EQ(metrics::value(*stats, "net.check.ok"), 2u);
  EXPECT_EQ(metrics::value(*stats, "net.explain.ok"), 1u);
  EXPECT_EQ(metrics::value(*stats, "net.catalog.ok"), 1u);
  EXPECT_GT(metrics::value(*stats, "net.run_script.bytes_out"), 0u);
  const metrics::Record* execute =
      metrics::find(*stats, "net.run_script.execute_us");
  ASSERT_NE(execute, nullptr);
  EXPECT_EQ(execute->kind, metrics::Kind::kHistogram);
  EXPECT_EQ(execute->histogram.count, 1u);

  // shutdown unblocks Server::wait()
  EXPECT_TRUE(client.shutdown_server().is_ok());
  server.wait();  // must return promptly, not hang
  server.stop();
}

// ---- Acceptance: byte-identical results vs. direct execution --------------

TEST(NetTest, ResultTablesByteIdenticalToDirectExecution) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());

  const auto params = berlin_params();
  const std::vector<std::string> scripts = {
      "select id, label, propertyNumeric_1 from table Products",
      bsbm::berlin_q2(),
      bsbm::berlin_q1(),
  };
  for (const auto& text : scripts) {
    auto direct = shared_db().run_script(text, params);
    ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
    auto remote = client.run_script(text, params);
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    EXPECT_EQ(render_results(remote.value()), render_results(direct.value()))
        << "wire round-trip changed the result of: " << text;
  }
  server.stop();

  // Replies of more than 3000 rows stream through many flushes of the
  // reply buffer: every Offers column kind but bool, and Q5's whole
  // intermediate.
  auto large = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(1500, 7));
  ASSERT_TRUE(large.is_ok()) << large.status().to_string();
  Server large_server(**large);
  ASSERT_TRUE(large_server.start().is_ok());
  Client large_client = make_client(large_server.port());
  ASSERT_TRUE(large_client.connect().is_ok());
  for (const std::string& text :
       {std::string("select * from table Offers"), bsbm::berlin_q5()}) {
    auto direct = (*large)->run_script(text, params);
    ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
    ASSERT_GT(direct->front().table->num_rows(), 3000u) << text;
    auto remote = large_client.run_script(text, params);
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    EXPECT_EQ(render_results(remote.value()), render_results(direct.value()))
        << "wire round-trip changed the result of: " << text;
  }
  large_server.stop();
}

// ---- Reply frame budget -----------------------------------------------------

TEST(NetTest, OversizedReplyIsTypedErrorAndConnectionStaysUsable) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Offers' 202 rows need far more than 4 KiB: the counting pass turns
  // the reply into an in-band error before a byte of it is sent.
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, /*is_response=*/false,
                         7, raw_script_request("select * from table Offers"))
                  .is_ok());
  auto refused = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  ASSERT_TRUE(refused.is_ok()) << refused.status().to_string();
  EXPECT_EQ(refused->header.request_id, 7u);
  EXPECT_LE(refused->payload.size(), options.max_frame_bytes);
  ByteReader reader = frame_reader(refused->payload);
  const Status status = decode_status(reader);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds the frame budget of 4096 bytes"),
            std::string::npos)
      << status.to_string();
  EXPECT_TRUE(reader.at_end());

  // The stream is still in step: the same connection answers a reply that
  // fits.
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, /*is_response=*/false,
                         8,
                         raw_script_request(
                             "select top 3 id from table Products order by id"))
                  .is_ok());
  auto answered = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  ASSERT_TRUE(answered.is_ok()) << answered.status().to_string();
  EXPECT_EQ(answered->header.request_id, 8u);
  ByteReader body = frame_reader(answered->payload);
  ASSERT_TRUE(decode_status(body).is_ok());
  StringPool pool;
  auto results = decode_results(body, pool);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(results->front().table->num_rows(), 3u);

  const metrics::Snapshot stats = server.metrics_snapshot();
  EXPECT_EQ(metrics::value(stats, "net.run_script.errors"), 1u);
  EXPECT_EQ(metrics::value(stats, "net.run_script.ok"), 1u);
  server.stop();
}

// ---- Generated wire oracle: streamed typed reply == boxed encoding ---------

namespace wire_gen {

/// A result table with one column of every kind, `rows` rows long. Each
/// cell is NULL with probability `null_density`; the others draw from
/// ordinary values and the edge cases (empty strings, NaN, -0.0,
/// infinities, int64 and date extremes, long strings).
storage::TablePtr random_table(StringPool& pool, std::size_t rows,
                               double null_density, std::uint64_t seed) {
  auto schema = storage::Schema::create({
      {"b", storage::DataType::boolean()},
      {"i", storage::DataType::int64()},
      {"d", storage::DataType::float64()},
      {"s", storage::DataType::varchar(400)},
      {"t", storage::DataType::date()},
  });
  GEMS_CHECK(schema.is_ok());
  auto table = std::make_shared<storage::Table>("W", std::move(schema).value(),
                                                pool);
  constexpr std::int64_t kInts[] = {0, -1, 1,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max()};
  constexpr double kDoubles[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), -2.5};
  const std::string long_string(300, 'x');
  const std::string strings[] = {"", "a", "alpha", long_string, "naïve"};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto pick = [&](auto& options) -> const auto& {
    return options[rng() % std::size(options)];
  };
  storage::TableAppender append(*table);
  for (std::size_t r = 0; r < rows; ++r) {
    for (storage::ColumnIndex c = 0; c < 5; ++c) {
      if (unit(rng) < null_density) {
        append.put_null(c);
        continue;
      }
      const bool edge = rng() % 4 == 0;
      switch (c) {
        case 0:
          append.put_bool(c, rng() % 2 == 0);
          break;
        case 1:
          append.put_int64(c, edge ? pick(kInts)
                                   : static_cast<std::int64_t>(rng()));
          break;
        case 2:
          append.put_double(c, edge ? pick(kDoubles) : unit(rng) * 1e6 - 5e5);
          break;
        case 3:
          append.put_string(c, edge ? std::string_view(pick(strings))
                                    : std::string_view("s" + std::to_string(
                                                             rng() % 50)));
          break;
        case 4:
          append.put_int64(c, edge ? pick(kInts)
                                   : static_cast<std::int64_t>(rng() % 20000));
          break;
      }
    }
    append.end_row();
  }
  append.commit();
  return table;
}

/// A table result, a subgraph result with members, a message-only result
/// and an empty result, in that order.
std::vector<StatementResult> random_results(StringPool& pool, std::size_t rows,
                                            double null_density,
                                            std::uint64_t seed) {
  std::vector<StatementResult> results(4);
  results[0].kind = StatementResult::Kind::kTable;
  results[0].table = random_table(pool, rows, null_density, seed);
  results[0].into = graql::IntoKind::kTable;
  results[0].into_name = "W";
  results[0].message = "W: " + std::to_string(rows) + " rows";
  results[1].kind = StatementResult::Kind::kSubgraph;
  results[1].subgraph = std::make_shared<exec::Subgraph>("G");
  results[1].subgraph->vertices(0, 64).set(seed % 64);
  results[1].subgraph->edges(1, 16).set(3);
  results[1].into = graql::IntoKind::kSubgraph;
  results[1].into_name = "G";
  results[2].message = "ingested " + std::to_string(rows) + " rows";
  results[2].truncated = true;
  return results;
}

/// The reply as the server streams it through a `buffer_bytes` buffer:
/// the bytes, and the offset where each sink call ended.
struct Streamed {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> flushes;
  std::uint64_t written = 0;
};

Streamed stream(const std::vector<StatementResult>& results,
                std::size_t buffer_bytes) {
  Streamed out;
  StreamWriter w(buffer_bytes, [&](std::span<const std::uint8_t> b) {
    out.bytes.insert(out.bytes.end(), b.begin(), b.end());
    out.flushes.push_back(out.bytes.size());
    return Status::ok();
  });
  encode_results(results, w);
  EXPECT_TRUE(w.finish().is_ok());
  out.written = w.written();
  return out;
}

}  // namespace wire_gen

TEST(WireResultOracleTest, StreamedRepliesEqualTheBoxedOracle) {
  using wire_gen::random_results;
  std::uint64_t seed = 1;
  for (const std::size_t rows :
       {std::size_t{0}, kChunkRows, 3 * kChunkRows + 17}) {
    for (const double null_density : {0.0, 0.2, 1.0}) {
      StringPool pool;
      const auto results = random_results(pool, rows, null_density, seed++);
      const std::vector<std::uint8_t> oracle =
          wire_oracle::encode_results(results);
      ByteCounter counted;
      encode_results(results, counted);
      std::vector<std::uint8_t> written;
      ByteWriter w(written);
      encode_results(results, w);
      const wire_gen::Streamed streamed =
          wire_gen::stream(results, kReplyBufferBytes);
      EXPECT_EQ(written, oracle) << rows << " rows, nulls " << null_density;
      EXPECT_EQ(streamed.bytes, oracle)
          << rows << " rows, nulls " << null_density;
      EXPECT_EQ(counted.written(), streamed.bytes.size());
      EXPECT_EQ(streamed.written, streamed.bytes.size());
      // The decoder reads the streamed bytes back to the same tables.
      ByteReader reader = frame_reader(streamed.bytes);
      StringPool decoded_pool;
      auto decoded = decode_results(reader, decoded_pool);
      ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
      EXPECT_TRUE(reader.at_end());
      EXPECT_EQ(decoded->front().table->to_string(1u << 20),
                results.front().table->to_string(1u << 20));
    }
  }
}

TEST(WireResultOracleTest, FlushBoundaryInsideEveryCellKind) {
  StringPool pool;
  const auto results = wire_gen::random_results(pool, kChunkRows, 0.1, 99);
  std::vector<wire_oracle::CellSpan> cells;
  const std::vector<std::uint8_t> oracle =
      wire_oracle::encode_results(results, &cells);
  // Every buffer size from the widest fixed field up to past the widest
  // short cell moves the flushes across every offset of every cell.
  std::set<storage::TypeKind> split;
  for (std::size_t buffer = 8; buffer <= 48; ++buffer) {
    const wire_gen::Streamed streamed = wire_gen::stream(results, buffer);
    ASSERT_EQ(streamed.bytes, oracle) << "buffer " << buffer;
    ASSERT_EQ(streamed.written, oracle.size());
    for (const wire_oracle::CellSpan& cell : cells) {
      const auto after = std::upper_bound(streamed.flushes.begin(),
                                          streamed.flushes.end(), cell.begin);
      if (after != streamed.flushes.end() && *after < cell.end) {
        split.insert(cell.kind);
      }
    }
  }
  EXPECT_EQ(split.size(), 5u) << "a cell kind never had a flush inside it";
}


// ---- Hostile frames --------------------------------------------------------

TEST(NetTest, RejectsGarbageMagic) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());

  std::vector<std::uint8_t> junk(kFrameHeaderBytes, 0xAB);
  ASSERT_TRUE(send_all(conn.sock, junk).is_ok());
  // The server reports the parse error on request id 0, then drops us.
  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(0), 1u);
  EXPECT_EQ(responses.at(0).code(), StatusCode::kParseError);
  EXPECT_NE(responses.at(0).message().find("byte offset 0"),
            std::string::npos);
  auto eof = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  EXPECT_FALSE(eof.is_ok());  // connection closed after the report
  server.stop();
}

TEST(NetTest, RejectsOversizedFrameBeforeAllocating) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Well-formed header whose payload length blows the 4 KiB frame budget.
  std::vector<std::uint8_t> header_bytes;
  ByteWriter header(header_bytes);
  header.u32(kFrameMagic);
  header.u16(kWireVersion);
  header.u8(static_cast<std::uint8_t>(Verb::kRunScript));
  header.u8(0);
  header.u64(7);
  header.u32(512u << 20);  // declares a 512 MiB payload
  ASSERT_TRUE(send_all(conn.sock, header_bytes).is_ok());

  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(0), 1u);
  EXPECT_EQ(responses.at(0).code(), StatusCode::kParseError);
  EXPECT_NE(responses.at(0).message().find("frame budget"),
            std::string::npos);
  EXPECT_NE(responses.at(0).message().find("byte offset 16"),
            std::string::npos);
  server.stop();
}

TEST(NetTest, TruncatedFrameClosesConnectionQuietly) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Header promises 64 payload bytes; send 3 and half-close. The server
  // sees EOF mid-frame (kUnavailable, not kParseError) and just closes.
  std::vector<std::uint8_t> partial_bytes;
  ByteWriter partial(partial_bytes);
  partial.u32(kFrameMagic);
  partial.u16(kWireVersion);
  partial.u8(static_cast<std::uint8_t>(Verb::kRunScript));
  partial.u8(0);
  partial.u64(8);
  partial.u32(64);
  partial.u8(1);
  partial.u8(2);
  partial.u8(3);
  ASSERT_TRUE(send_all(conn.sock, partial_bytes).is_ok());
  conn.sock.shutdown();

  auto eof = recv_frame(conn.sock, kDefaultMaxFrameBytes);
  EXPECT_FALSE(eof.is_ok());
  EXPECT_NE(eof.status().code(), StatusCode::kParseError);
  server.stop();
}

TEST(NetTest, HandshakeRequiredBeforeOtherVerbs) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kCatalog, false, 3, {}).is_ok());
  auto responses = conn.collect(1);
  ASSERT_EQ(responses.count(3), 1u);
  EXPECT_EQ(responses.at(3).code(), StatusCode::kInvalidArgument);
  server.stop();
}

TEST(NetTest, RejectsUnsupportedWireVersion) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  // A future version, and the previous one (whose stats payload layout
  // this build would misread).
  for (const std::uint16_t version :
       {std::uint16_t{99}, static_cast<std::uint16_t>(kWireVersion - 1)}) {
    SCOPED_TRACE("wire version " + std::to_string(version));
    RawConn conn;
    ASSERT_TRUE(conn.open(server.port(), /*handshake=*/false).is_ok());
    ASSERT_TRUE(send_frame(conn.sock, Verb::kHandshake, false, 1,
                           encode_handshake_request({version, "time-traveler"}))
                    .is_ok());
    auto responses = conn.collect(1);
    ASSERT_EQ(responses.count(1), 1u);
    EXPECT_EQ(responses.at(1).code(), StatusCode::kInvalidArgument);
    EXPECT_NE(responses.at(1).message().find("unsupported wire version"),
              std::string::npos);
  }
  server.stop();
}

// ---- Hardened IR / payload decoding ---------------------------------------

TEST(NetTest, DecodeScriptSurvivesTruncationAtEveryByte) {
  auto script = graql::parse_script(bsbm::berlin_q2());
  ASSERT_TRUE(script.is_ok());
  const std::vector<std::uint8_t> ir = graql::encode_script(script.value());
  ASSERT_TRUE(graql::decode_script(ir).is_ok());
  for (std::size_t cut = 0; cut < ir.size(); ++cut) {
    std::span<const std::uint8_t> prefix(ir.data(), cut);
    auto decoded = graql::decode_script(prefix);  // must not crash or hang
    EXPECT_FALSE(decoded.is_ok()) << "truncation at byte " << cut;
  }
}

TEST(NetTest, DecodeScriptRejectsHostileLengthBeforeAllocating) {
  auto script =
      graql::parse_script("select id from table Products into table R1");
  ASSERT_TRUE(script.is_ok());
  std::vector<std::uint8_t> ir = graql::encode_script(script.value());
  // The trailing bytes encode the `into` name: u8 kind, u32 len, chars.
  // Rewrite the length prefix to claim ~4 GiB; the decoder must reject it
  // (with the byte offset) instead of allocating.
  const std::size_t len_at = ir.size() - 2 - 4;
  ir[len_at] = 0xFF;
  ir[len_at + 1] = 0xFF;
  ir[len_at + 2] = 0xFF;
  ir[len_at + 3] = 0xFF;
  auto decoded = graql::decode_script(ir);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("byte offset"),
            std::string::npos);
}

TEST(NetTest, DecodeParamsRejectsHostileCount) {
  relational::ParamMap params;
  params.emplace("a", Value::int64(1));
  std::vector<std::uint8_t> bytes = graql::encode_params(params);
  // First field is the entry count: claim 2^32-1 entries.
  bytes[0] = 0xFF;
  bytes[1] = 0xFF;
  bytes[2] = 0xFF;
  bytes[3] = 0xFF;
  auto decoded = graql::decode_params(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(NetTest, StatsSnapshotRoundTripsAndSurvivesTruncation) {
  // One record of each kind; the histogram has samples in two buckets.
  metrics::Registry registry;
  registry.counter("access.writer.acquired").add(5);
  registry.gauge("cluster.rank.1.connected").set(1);
  registry.counter("cluster.rank.1.messages").add(38);
  registry.gauge("mvcc.pins.peak").set(4);
  metrics::Histogram& execute = registry.histogram("net.run_script.execute_us");
  execute.record(12);
  execute.record(3400);
  const metrics::Snapshot snap = registry.snapshot();

  std::vector<std::uint8_t> bytes;
  encode_snapshot(snap, bytes);
  auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), snap);

  // Every strict prefix is a parse error: nothing is optional.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto prefix =
        decode_snapshot(std::span<const std::uint8_t>(bytes.data(), cut));
    ASSERT_FALSE(prefix.is_ok()) << "truncation at byte " << cut;
    EXPECT_EQ(prefix.status().code(), StatusCode::kParseError)
        << "truncation at byte " << cut;
  }

  // Every single-byte flip either fails typed or decodes to records that
  // re-encode to exactly the flipped bytes.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[i] ^= 0xFF;
    auto mutated = decode_snapshot(flipped);
    if (!mutated.is_ok()) {
      EXPECT_EQ(mutated.status().code(), StatusCode::kParseError)
          << "flip at byte " << i;
      continue;
    }
    std::vector<std::uint8_t> again;
    encode_snapshot(mutated.value(), again);
    EXPECT_EQ(again, flipped) << "flip at byte " << i;
  }

  // A record count, name length or bucket count of 0xFFFFFFFF is checked
  // against the remaining bytes before anything is allocated. Records are
  // u32 name length + name + u8 kind + u64 value; the histogram (last by
  // name) has three u64 fields before its bucket count.
  std::size_t buckets_at = 4;
  for (const metrics::Record& r : snap) {
    const bool histogram = r.kind == metrics::Kind::kHistogram;
    buckets_at += 4 + r.name.size() + 1 + (histogram ? 3 * 8 : 8);
    if (histogram) break;
  }
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}, buckets_at}) {
    std::vector<std::uint8_t> hostile = bytes;
    ASSERT_LE(at + 4, hostile.size());
    std::fill_n(hostile.begin() + static_cast<std::ptrdiff_t>(at), 4, 0xFF);
    auto rejected = decode_snapshot(hostile);
    ASSERT_FALSE(rejected.is_ok()) << "length at byte " << at;
    EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);
    EXPECT_NE(rejected.status().message().find("exceeds remaining"),
              std::string::npos)
        << rejected.status().to_string();
    EXPECT_NE(rejected.status().message().find(
                  "byte offset " + std::to_string(at)),
              std::string::npos)
        << rejected.status().to_string();
  }
}

TEST(NetTest, StatsRenderIdenticallyOverTheWire) {
  // wire == direct for `\stats`: a durable database that has run a query,
  // an ingest and a checkpoint renders the same store, matcher and ingest
  // records locally as a client gets from the stats verb.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "gems_net_stats_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/more_producers.csv");
    for (int i = 0; i < 20; ++i) {
      f << "sx" << i << ",Producer,P" << i << ",c,hp,US,gen,2008-01-01\n";
    }
  }
  {
    server::DatabaseOptions db_options;
    db_options.data_dir = dir;
    db_options.store_dir = dir + "/store";
    db_options.wal_fsync = false;
    server::Database db(db_options);
    ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
    ASSERT_TRUE(
        bsbm::generate(db, bsbm::GeneratorConfig::derive(30, 5)).is_ok());
    Server server(db);
    ASSERT_TRUE(server.start().is_ok());
    Client client = make_client(server.port());
    ASSERT_TRUE(client.connect().is_ok());
    ASSERT_TRUE(client
                    .run_script("select ProductVtx.id from graph ProductVtx() "
                                "--producer--> ProducerVtx(country = 'US')")
                    .is_ok());
    ASSERT_TRUE(
        client.run_script("ingest table Producers more_producers.csv").is_ok());
    ASSERT_TRUE(db.checkpoint().is_ok());

    auto remote = client.stats();
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    const metrics::Snapshot direct = db.metrics_snapshot();
    for (const char* prefix : {"store.", "exec.match.", "mvcc.ingest."}) {
      const std::string local = metrics::render(direct, prefix);
      EXPECT_NE(local, "") << prefix;
      EXPECT_EQ(metrics::render(remote.value(), prefix), local) << prefix;
    }
    EXPECT_GE(metrics::value(direct, "store.wal.records"), 1u);
    EXPECT_EQ(metrics::value(direct, "store.snapshot.written"), 1u);
    EXPECT_EQ(metrics::value(direct, "exec.match.queries"), 1u);
    EXPECT_EQ(metrics::value(direct, "mvcc.ingest.delta") +
                  metrics::value(direct, "mvcc.ingest.rebuild"),
              1u);
    server.stop();
  }
  fs::remove_all(dir);
}

// ---- Concurrency -----------------------------------------------------------

TEST(NetTest, EightConcurrentClients) {
  Server server(shared_db());
  ASSERT_TRUE(server.start().is_ok());
  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto run = client.run_script(
            "select id from table Products where propertyNumeric_1 > " +
            std::to_string(c));
        if (!run.is_ok()) failures.fetch_add(1);
        if (!client.catalog().is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const metrics::Snapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(metrics::value(snapshot, "net.handshake.ok"),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(metrics::value(snapshot, "net.run_script.ok"),
            static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_EQ(metrics::value(snapshot, "net.catalog.ok"),
            static_cast<std::uint64_t>(kClients * kRounds));
  server.stop();
}

// ---- Deadlines, cancellation, admission control ---------------------------

TEST(NetTest, DeadlineExpiresWhileQueued) {
  ServerOptions options;
  options.num_workers = 1;
  options.debug_execute_delay_ms = 200;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  // Both requests carry a 50 ms deadline. The first is dequeued at once
  // (no queue wait) and executes; the second sits behind the 200 ms debug
  // delay and must be expired at dequeue without executing.
  const auto payload =
      raw_script_request("select id from table Products", /*deadline_ms=*/50);
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 10, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 11, payload)
                  .is_ok());

  auto responses = conn.collect(2);
  ASSERT_EQ(responses.count(10), 1u);
  ASSERT_EQ(responses.count(11), 1u);
  EXPECT_TRUE(responses.at(10).is_ok()) << responses.at(10).to_string();
  EXPECT_EQ(responses.at(11).code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(
      metrics::value(server.metrics_snapshot(), "net.run_script.expired"),
      1u);
  server.stop();
}

TEST(NetTest, CancelRemovesQueuedRequest) {
  ServerOptions options;
  options.num_workers = 1;
  options.debug_execute_delay_ms = 200;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  const auto payload = raw_script_request("select id from table Products");
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 20, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // 20 dequeued
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 21, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kCancel, false, 22,
                         encode_cancel_request({21}))
                  .is_ok());

  auto responses = conn.collect(3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses.at(22).is_ok());  // the cancel itself
  EXPECT_TRUE(responses.at(20).is_ok());  // already executing: completes
  EXPECT_EQ(responses.at(21).code(), StatusCode::kCancelled);

  EXPECT_EQ(
      metrics::value(server.metrics_snapshot(), "net.run_script.cancelled"),
      1u);
  server.stop();
}

TEST(NetTest, AdmissionControlRejectsWhenQueueFull) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.debug_execute_delay_ms = 300;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());
  RawConn conn;
  ASSERT_TRUE(conn.open(server.port()).is_ok());

  const auto payload = raw_script_request("select id from table Products");
  // 30 occupies the worker; 31 fills the queue; 32 and 33 must bounce.
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 30, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 31, payload)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 32, payload)
                  .is_ok());
  ASSERT_TRUE(send_frame(conn.sock, Verb::kRunScript, false, 33, payload)
                  .is_ok());

  auto responses = conn.collect(4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses.at(30).is_ok());
  EXPECT_TRUE(responses.at(31).is_ok());
  EXPECT_EQ(responses.at(32).code(), StatusCode::kOverloaded);
  EXPECT_EQ(responses.at(33).code(), StatusCode::kOverloaded);
  EXPECT_NE(responses.at(32).message().find("retry with backoff"),
            std::string::npos);

  const metrics::Snapshot snapshot = server.metrics_snapshot();
  EXPECT_EQ(metrics::value(snapshot, "net.run_script.overloaded"), 2u);
  EXPECT_EQ(metrics::value(snapshot, "net.run_script.ok"), 2u);
  server.stop();
}

// ---- Client resilience -----------------------------------------------------

TEST(NetTest, ConnectFailsTypedWhenNobodyListens) {
  ClientOptions options;
  options.port = 1;  // privileged port nobody binds in the test env
  options.connect_retries = 1;
  options.retry_backoff_ms = 10;
  Client client(options);
  const Status status = client.connect();
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(client.connected());
}

TEST(NetTest, ClientReconnectsAfterServerRestart) {
  auto first = std::make_unique<Server>(shared_db());
  ASSERT_TRUE(first->start().is_ok());
  const std::uint16_t port = first->port();
  Client client = make_client(port);
  ASSERT_TRUE(client.connect().is_ok());
  ASSERT_TRUE(client.run_script("select id from table Products").is_ok());

  first->stop();
  // The dead connection surfaces as a transport error, not a hang...
  EXPECT_FALSE(client.run_script("select id from table Products").is_ok());

  // ...and a fresh connect() to a new server on the same port recovers.
  ServerOptions options;
  options.port = port;
  Server second(shared_db(), options);
  ASSERT_TRUE(second.start().is_ok());
  ASSERT_TRUE(client.connect().is_ok());
  EXPECT_TRUE(client.run_script("select id from table Products").is_ok());
  second.stop();
}

// ---- Concurrent read execution (pinned epochs, writer lock) ---------------

TEST(NetConcurrencyTest, EightReadersByteIdenticalAcrossWorkers) {
  // Workers genuinely overlap read-only scripts; every client must still
  // see exactly the serial result bytes.
  ServerOptions options;
  options.num_workers = 4;
  Server server(shared_db(), options);
  ASSERT_TRUE(server.start().is_ok());

  const std::vector<std::string> scripts = {
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table NetRo\n"
      "select count(*) as n from table NetRo",
      "select id, price from table Offers where price > 500.0 order by id",
      "select count(*) as n from table Reviews",
  };
  std::vector<std::string> baseline;
  {
    Client client = make_client(server.port());
    ASSERT_TRUE(client.connect().is_ok());
    for (const auto& s : scripts) {
      auto r = client.run_script(s);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      baseline.push_back(render_results(r.value()));
    }
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < scripts.size(); ++s) {
          auto r = client.run_script(scripts[s]);
          if (!r.is_ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (render_results(r.value()) != baseline[s]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // The writer-lock and epoch counters travel the stats verb with the
  // rest. Read scripts pin epochs (gems::mvcc) rather than take the
  // writer lock, so read concurrency shows up as pins.
  Client client = make_client(server.port());
  ASSERT_TRUE(client.connect().is_ok());
  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GE(metrics::value(*stats, "mvcc.pins.taken"),
            static_cast<std::uint64_t>(kClients * kRounds * scripts.size()));
  // Overlay publishes take the writer lock.
  EXPECT_GE(metrics::value(*stats, "access.writer.acquired"), 1u);
  EXPECT_GE(metrics::value(*stats, "mvcc.epochs.published"), 1u);
  // Scripts without `into` never touch the writer lock.
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t s = 1; s < scripts.size(); ++s) {
      ASSERT_TRUE(client.run_script(scripts[s]).is_ok());
    }
  }
  auto after = client.stats();
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(metrics::value(*after, "access.writer.acquired"),
            metrics::value(*stats, "access.writer.acquired"));
  server.stop();
}

TEST(NetConcurrencyTest, ReadersInterleavedWithIngestAndCheckpoint) {
  // A durable database behind the wire: 8 reader clients loop while one
  // writer client ingests batches and the owner takes checkpoints. Reads
  // must only ever observe whole-batch states.
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "gems_net_access_store";
  fs::remove_all(dir);  // stale store from an aborted run
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/more_producers.csv");
    for (int i = 0; i < 50; ++i) {
      f << "nx" << i << ",Producer,P" << i << ",c,hp,US,gen,2008-01-01\n";
    }
  }
  server::DatabaseOptions db_options;
  db_options.data_dir = dir;
  db_options.store_dir = dir + "/store";
  db_options.wal_fsync = false;
  server::Database db(db_options);
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  ASSERT_TRUE(bsbm::generate(db, bsbm::GeneratorConfig::derive(30, 9)).is_ok());
  const auto base = static_cast<std::int64_t>((*db.table("Producers"))->num_rows());

  ServerOptions options;
  options.num_workers = 4;
  Server server(db, options);
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kReaders = 8;
  constexpr int kBatches = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      Client client = make_client(server.port());
      if (!client.connect().is_ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto r = client.run_script(
            "select count(*) as n from table Producers");
        if (!r.is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::int64_t n =
            r->back().table->value_at(0, 0).as_int64();
        if (n < base || (n - base) % 50 != 0) torn_reads.fetch_add(1);
      }
    });
  }
  {
    Client writer = make_client(server.port());
    ASSERT_TRUE(writer.connect().is_ok());
    for (int b = 0; b < kBatches; ++b) {
      auto r = writer.run_script("ingest table Producers more_producers.csv");
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      const Status s = db.checkpoint();
      ASSERT_TRUE(s.is_ok()) << s.to_string();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ((*db.table("Producers"))->num_rows(),
            static_cast<std::size_t>(base) + 50 * kBatches);
  fs::remove_all(dir);
}

// ---- Client auto-retry on in-band kUnavailable -----------------------------
// A scripted fake server: answers the handshake, then plays back one
// canned response per kRunScript request. Distinguishes the in-band case
// (a decoded kUnavailable status — safe to retry, nothing executed) from
// a transport failure (connection dropped — never retried: the outcome
// server-side is unknown).

TEST(NetTest, ClientRetriesInBandUnavailableOnce) {
  auto listener = tcp_listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto port = local_port(*listener);
  ASSERT_TRUE(port.is_ok());

  std::atomic<int> scripts_seen{0};
  std::thread fake([&listener, &scripts_seen] {
    auto conn = tcp_accept(*listener);
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    for (;;) {
      auto frame = recv_frame(*conn, kDefaultMaxFrameBytes);
      if (!frame.is_ok()) return;  // client disconnected
      std::vector<std::uint8_t> payload;
      ByteWriter w(payload);
      if (frame->header.verb == Verb::kHandshake) {
        encode_status(Status::ok(), w);
        HandshakeResponse hs;
        hs.session_id = 1;
        hs.server_name = "fake";
        w.bytes(encode_handshake_response(hs));
      } else if (frame->header.verb == Verb::kRunScript) {
        // First attempt: the typed retryable status. Second: success.
        if (scripts_seen.fetch_add(1) == 0) {
          encode_status(unavailable("rank down, try again"), w);
        } else {
          encode_status(Status::ok(), w);
          encode_results({}, w);
        }
      } else {
        encode_status(unimplemented("fake server"), w);
      }
      ASSERT_TRUE(send_frame(*conn, frame->header.verb, /*is_response=*/true,
                             frame->header.request_id, payload)
                      .is_ok());
    }
  });

  ClientOptions options;
  options.port = port.value();
  options.unavailable_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.connect().is_ok());
  auto results = client.run_script("select id from table Products");
  EXPECT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_EQ(scripts_seen.load(), 2);
  EXPECT_EQ(client.unavailable_retries_used(), 1u);
  client.disconnect();
  fake.join();
}

TEST(NetTest, ClientDoesNotRetryTransportFailures) {
  auto listener = tcp_listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto port = local_port(*listener);
  ASSERT_TRUE(port.is_ok());

  std::thread fake([&listener] {
    auto conn = tcp_accept(*listener);
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    auto hello = recv_frame(*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(hello.is_ok());
    std::vector<std::uint8_t> payload;
    ByteWriter w(payload);
    encode_status(Status::ok(), w);
    HandshakeResponse hs;
    hs.session_id = 1;
    w.bytes(encode_handshake_response(hs));
    ASSERT_TRUE(send_frame(*conn, Verb::kHandshake, /*is_response=*/true,
                           hello->header.request_id, payload)
                    .is_ok());
    // Read the script request, then vanish without answering: the script
    // may or may not have executed, so the client must NOT retry.
    auto script = recv_frame(*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(script.is_ok());
    conn->close();
  });

  ClientOptions options;
  options.port = port.value();
  options.request_timeout_ms = 2000;
  Client client(options);
  ASSERT_TRUE(client.connect().is_ok());
  auto results = client.run_script("select id from table Products");
  EXPECT_FALSE(results.is_ok());
  EXPECT_EQ(client.unavailable_retries_used(), 0u);
  fake.join();
}

}  // namespace
}  // namespace gems::net
