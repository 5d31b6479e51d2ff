// Tests for gems::store: snapshot round-trips and byte-identical
// determinism, WAL replay after a simulated crash, checkpoint + reopen,
// corruption injection (bit flips and truncation must yield typed errors
// or clean tail truncation, never UB), fail-stop semantics, the
// background checkpoint thread (exercised under TSan in CI), and streamed
// checkpoints (file == in-memory image, failed writes leave no trace).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/fsuid.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "common/crc32.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "graph_oracle.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "wire_oracle.hpp"

namespace gems::store {
namespace {

namespace fs = std::filesystem;
using storage::Value;

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::path(::testing::TempDir()) /
            ("gems_store_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string sub(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

const char kDdl[] = R"(
  create table People(name varchar(16), age integer)
  create table Knows(src varchar(16), dst varchar(16))
  create vertex Person(name) from table People
  create edge knows with vertices (Person as A, Person as B)
    from table Knows
    where Knows.src = A.name and Knows.dst = B.name
)";

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

void write_people_csvs(const TempDir& dir) {
  write_text_file(dir.sub("people.csv"),
                  "ada,36\ngrace,45\nedsger,40\nbarbara,38\n");
  write_text_file(dir.sub("knows.csv"),
                  "ada,grace\ngrace,edsger\nedsger,ada\nbarbara,grace\n");
}

server::DatabaseOptions durable_options(const TempDir& dir) {
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  options.store_dir = dir.sub("store");
  options.wal_fsync = false;  // keep the suite fast; consistency is the same
  return options;
}

/// Builds the four-person social graph through the statement path so every
/// mutation is WAL-logged.
void populate(server::Database& db) {
  auto r = db.run_script(kDdl);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  r = db.run_script(
      "ingest table People 'people.csv'\n"
      "ingest table Knows 'knows.csv'\n");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
}

/// Canonical rendering of the whole database for equality checks: catalog
/// summary (names + sizes) plus every table's CSV image.
std::string state_fingerprint(server::Database& db) {
  std::ostringstream out;
  out << db.catalog_summary() << "\n";
  for (const auto& name : db.tables().names()) {
    out << "== " << name << " ==\n";
    storage::write_csv(**db.table(name), out);
  }
  return out.str();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  auto bytes = read_file_bytes(path);
  EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  return bytes.is_ok() ? std::vector<std::uint8_t>(bytes->begin(), bytes->end())
                       : std::vector<std::uint8_t>{};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- Snapshot encode/decode ----------------------------------------------

TEST(SnapshotTest, RoundTripPreservesState) {
  TempDir dir("snap_rt");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);

  const auto image = encode_snapshot(db.context(), /*wal_seq=*/7);

  server::Database restored;  // fresh in-memory db as a decode target
  auto info = decode_snapshot(image, restored.context());
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  restored.refresh_epoch();  // decoded into the live context directly
  EXPECT_EQ(info->wal_seq, 7u);
  EXPECT_EQ(info->body_bytes + kSnapshotHeaderBytes, image.size());

  EXPECT_EQ(state_fingerprint(db), state_fingerprint(restored));
  // The graph is not in the image: decode built it from the declarations.
  EXPECT_EQ(graph::expect_same_graph(restored.graph(), db.graph()),
            2 * db.graph().num_edge_types());
  const auto& g = restored.graph();
  ASSERT_EQ(g.num_vertex_types(), 1u);
  ASSERT_EQ(g.num_edge_types(), 1u);
  EXPECT_EQ(g.vertex_type(0).num_vertices(), 4u);
  EXPECT_EQ(g.edge_type(0).num_edges(), 4u);
  // The restored key index still answers lookups (graph traversals work).
  auto q = restored.run_script(
      "select Person.age from graph Person (name = 'grace')");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
}

TEST(SnapshotTest, EncodingIsDeterministic) {
  TempDir dir("snap_det");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);

  const auto a = encode_snapshot(db.context(), 3);
  const auto b = encode_snapshot(db.context(), 3);
  EXPECT_EQ(a, b);  // same state, byte-identical

  // Encode -> decode -> encode is also byte-identical: decode re-interns
  // strings in id order, and the build it runs interns nothing new.
  server::Database restored;
  ASSERT_TRUE(decode_snapshot(a, restored.context()).is_ok());
  const auto c = encode_snapshot(restored.context(), 3);
  EXPECT_EQ(a, c);
  EXPECT_EQ(graph::expect_same_graph(restored.graph(), db.graph()),
            2 * db.graph().num_edge_types());
}

TEST(SnapshotTest, SizingPassCountsEveryEncodedByte) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(200));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  // encode_snapshot reserves snapshot_size(); the counting pass must agree
  // with the encoder field for field, or the image reallocates.
  const auto image = encode_snapshot((*db)->context(), 5);
  EXPECT_EQ(snapshot_size((*db)->context(), 5), image.size());

  server::Database restored;
  ASSERT_TRUE(decode_snapshot(image, restored.context()).is_ok());
  EXPECT_EQ(snapshot_size(restored.context(), 5), image.size());
  EXPECT_EQ(encode_snapshot(restored.context(), 5), image);
  EXPECT_EQ(graph::expect_same_graph(restored.graph(), (*db)->graph()),
            2 * (*db)->graph().num_edge_types());
}

TEST(SnapshotTest, CorruptionIsATypedErrorNeverUB) {
  TempDir dir("snap_fuzz");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);
  const auto image = encode_snapshot(db.context(), 1);
  ASSERT_GT(image.size(), kSnapshotHeaderBytes);

  // Flip one byte at a sweep of offsets across header and body. Every
  // mutation must fail decode with kIoError — and must not crash (the
  // ASan/UBSan CI job runs this test).
  for (std::size_t at = 0; at < image.size();
       at += (at < kSnapshotHeaderBytes ? 1 : 97)) {
    auto bad = image;
    bad[at] ^= 0x40;
    server::Database scratch;
    auto r = decode_snapshot(bad, scratch.context());
    ASSERT_FALSE(r.is_ok()) << "byte " << at << " flip went undetected";
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "byte " << at;
  }

  // Truncation at any point is equally fatal and equally typed.
  for (std::size_t len : {std::size_t{0}, std::size_t{5},
                          kSnapshotHeaderBytes - 1, kSnapshotHeaderBytes,
                          image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> bad(image.begin(),
                                  image.begin() + static_cast<long>(len));
    server::Database scratch;
    auto r = decode_snapshot(bad, scratch.context());
    ASSERT_FALSE(r.is_ok()) << "len " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "len " << len;
  }

  // Trailing garbage after a valid body is also rejected.
  auto padded = image;
  padded.push_back(0xEE);
  server::Database scratch;
  EXPECT_FALSE(decode_snapshot(padded, scratch.context()).is_ok());
}

// ---- Format v3: tables and declarations, not the graph ----------------------
// Recovery builds the graph from the image's declarations, so a
// declaration is input like any script: the analyzer checks it against
// the decoded tables before the build runs it. The images below are
// re-sealed (both CRCs recomputed over the edit, header layout in
// DESIGN.md §5d), so only the decoder's own checks stand between the edit
// and the build.

/// `image` with its CRCs recomputed: the body CRC at header byte 16, then
/// the header CRC at byte 20 over the 20 bytes before it.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> image) {
  auto put = [&image](std::size_t to, std::uint32_t value) {
    std::vector<std::uint8_t> field;
    ByteWriter(field).u32(value);
    std::copy(field.begin(), field.end(), image.begin() + to);
  };
  const std::span<const std::uint8_t> bytes(image);
  put(16, crc32(bytes.subspan(kSnapshotHeaderBytes)));
  put(20, crc32(bytes.subspan(0, 20)));
  return image;
}

/// `image` with the u32 at byte `at` set to `v`, re-sealed.
std::vector<std::uint8_t> with_u32(std::vector<std::uint8_t> image,
                                   std::size_t at, std::uint32_t v) {
  std::vector<std::uint8_t> field;
  ByteWriter(field).u32(v);
  std::copy(field.begin(), field.end(), image.begin() + at);
  return resealed(std::move(image));
}

/// Decodes `image` into a fresh database.
Status decode_status(const std::vector<std::uint8_t>& image) {
  server::Database scratch;
  return decode_snapshot(image, scratch.context()).status();
}

/// The snapshot image of the four-person `populate` graph.
std::vector<std::uint8_t> four_person_image(const std::string& tag) {
  TempDir dir(tag);
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);
  return encode_snapshot(db.context(), 1);
}

TEST(SnapshotTest, RejectsADeclarationItsTableCannotBuild) {
  const auto image = four_person_image("snap_decl");
  // The People table's record: its name, two columns, the first `name`.
  std::vector<std::uint8_t> head;
  ByteWriter w(head);
  w.str("People");
  w.u32(2);
  w.str("name");
  const auto found =
      std::search(image.begin(), image.end(), head.begin(), head.end());
  ASSERT_NE(found, image.end());
  const std::size_t name_at = static_cast<std::size_t>(found - image.begin()) +
                              head.size() - 4;
  auto renamed = [&](const char* column) {
    auto edited = image;
    std::copy(column, column + 4, edited.begin() + name_at);
    return resealed(std::move(edited));
  };
  // The same name re-sealed decodes; the graph is built and queryable.
  {
    server::Database db;
    ASSERT_TRUE(decode_snapshot(renamed("name"), db.context()).is_ok());
    db.refresh_epoch();
    EXPECT_EQ(db.graph().vertex_type(0).num_vertices(), 4u);
    EXPECT_EQ(db.graph().edge_type(0).num_edges(), 4u);
  }
  // Renamed, the column Person is keyed on is gone: the declaration does
  // not analyze, and decode fails typed before any build (the ASan/UBSan
  // CI job runs this test).
  const Status bad = decode_status(renamed("nome"));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), StatusCode::kIoError);
  EXPECT_NE(bad.message().find("declaration of vertex type 'Person'"),
            std::string::npos)
      << bad.to_string();
  EXPECT_NE(bad.message().find("no column 'name'"), std::string::npos)
      << bad.to_string();
}

/// Where the `knows` declaration's source vertex type name starts in a
/// four-person `populate` image: after the edge's name and the source
/// name's length. The target's name follows the source's alias `A`.
std::size_t knows_source_type_at(const std::vector<std::uint8_t>& image) {
  std::vector<std::uint8_t> head;
  ByteWriter w(head);
  w.str("knows");
  w.str("Person");
  w.str("A");
  w.str("Person");
  w.str("B");
  const auto found =
      std::search(image.begin(), image.end(), head.begin(), head.end());
  EXPECT_NE(found, image.end());
  return static_cast<std::size_t>(found - image.begin()) + 4 + 5 + 4;
}
constexpr std::size_t kKnowsTargetTypeAfterSource = 6 + 4 + 1 + 4;

/// `image` with the six bytes at `at` spelling `name`, re-sealed.
std::vector<std::uint8_t> with_type_name(std::vector<std::uint8_t> image,
                                         std::size_t at, const char* name) {
  std::copy(name, name + 6, image.begin() + at);
  return resealed(std::move(image));
}

/// Naming `name` at byte `at` of `image` fails decode with a kIoError that
/// names the knows declaration and the vertex type the image lacks.
void expect_endpoint_rejected(const std::vector<std::uint8_t>& image,
                              std::size_t at, const char* name) {
  const Status bad = decode_status(with_type_name(image, at, name));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), StatusCode::kIoError);
  EXPECT_NE(bad.message().find("declaration of edge type 'knows'"),
            std::string::npos)
      << bad.to_string();
  EXPECT_NE(bad.message().find("unknown vertex type '" + std::string(name) +
                               "'"),
            std::string::npos)
      << bad.to_string();
}

// An endpoint is out of range when it names no vertex type of the image.
// The analyzer rejects it before the build binds the edge's where clause
// (the ASan/UBSan CI job runs these tests).

TEST(SnapshotTest, RejectsAnOutOfRangeTargetBeforeTheBuild) {
  const auto image = four_person_image("snap_target");
  const std::size_t target =
      knows_source_type_at(image) + kKnowsTargetTypeAfterSource;
  // The same target re-sealed decodes.
  ASSERT_TRUE(decode_status(with_type_name(image, target, "Person")).is_ok());
  expect_endpoint_rejected(image, target, "Persoo");
  // A table's name is not a vertex type's.
  expect_endpoint_rejected(image, target, "People");
}

TEST(SnapshotTest, RejectsAnOutOfRangeSourceBeforeTheBuild) {
  const auto image = four_person_image("snap_source");
  const std::size_t source = knows_source_type_at(image);
  ASSERT_TRUE(decode_status(with_type_name(image, source, "Person")).is_ok());
  expect_endpoint_rejected(image, source, "Persoo");
  expect_endpoint_rejected(image, source, "People");
}

TEST(SnapshotTest, RefusesEveryVersionButTheCurrentOne) {
  ASSERT_EQ(kSnapshotVersion, 3);
  const auto image = four_person_image("snap_version");
  // Bytes 4-7 hold the u16 version and the u16 reserved zero.
  ASSERT_TRUE(decode_status(with_u32(image, 4, kSnapshotVersion)).is_ok());
  for (const std::uint32_t version : {0u, 1u, 2u, 4u, 0xFFFFu}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const Status refused = decode_status(with_u32(image, 4, version));
    ASSERT_FALSE(refused.is_ok());
    EXPECT_EQ(refused.code(), StatusCode::kIoError);
    EXPECT_NE(refused.message().find("unsupported snapshot version " +
                                     std::to_string(version)),
              std::string::npos)
        << refused.to_string();
    EXPECT_NE(refused.message().find("reads version 3"), std::string::npos)
        << refused.to_string();
  }
}

// ---- Writer: in-memory vs streamed ------------------------------------------

/// Fields laid out so that small ones straddle the streaming buffer's
/// boundary and one array is larger than the whole buffer. `W` is a
/// ByteWriter or a FileWriter.
template <typename W>
void write_boundary_fields(W& w) {
  const std::vector<std::uint8_t> fill(kWriterBufferBytes - 3, 0x5A);
  w.bytes(fill);
  w.u64(0x0102030405060708ull);  // 3 bytes of room left: straddles
  w.u16(0xBEEF);
  w.str("across the boundary");
  std::vector<std::uint32_t> big(kWriterBufferBytes / 2);  // 2x the buffer
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  write_pod_array<std::uint32_t>(w, big);
  w.f64(-2.5);
  const std::vector<std::uint8_t> almost(kWriterBufferBytes - 1, 0xC3);
  w.bytes(almost);  // fits only after a flush
  w.u32(0xDEADBEEF);
  w.u8(7);
}

TEST(WriterTest, StreamedBytesEqualInMemoryBytesAcrossTheBuffer) {
  std::vector<std::uint8_t> memory;
  ByteWriter m(memory);
  write_boundary_fields(m);

  TempDir dir("writer");
  const std::string path = dir.sub("streamed.bin");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  FileWriter s(fd, path);
  write_boundary_fields(s);
  const Status finished = s.finish();
  ::close(fd);
  ASSERT_TRUE(finished.is_ok()) << finished.to_string();

  EXPECT_EQ(slurp(path), memory);
  EXPECT_EQ(s.written(), memory.size());
  EXPECT_EQ(s.crc(), crc32(memory));

  // A failed write is sticky and typed, even when the file would accept
  // later writes: they are dropped, since the file already has a gap, and
  // finish() reports the first error. A full non-blocking pipe fails the
  // first write with EAGAIN; draining it makes later writes succeed.
  int pipe_fds[2];
  ASSERT_EQ(::pipe2(pipe_fds, O_NONBLOCK), 0);
  const std::vector<std::uint8_t> chunk(4096, 0x11);
  while (::write(pipe_fds[1], chunk.data(), chunk.size()) > 0) {
  }
  FileWriter bad(pipe_fds[1], "pipe");
  bad.bytes(memory);  // larger than the buffer: written through, fails
  std::vector<std::uint8_t> sink(chunk.size());
  while (::read(pipe_fds[0], sink.data(), sink.size()) > 0) {
  }
  bad.u32(1);
  const Status failed = bad.finish();
  EXPECT_LT(::read(pipe_fds[0], sink.data(), sink.size()), 0);  // dropped
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(bad.written(), 0u);
}

// ---- WAL -------------------------------------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(WalTest, AppendReopenReplaysInOrder) {
  TempDir dir("wal_rt");
  const std::string path = dir.sub("wal.gwal");
  {
    auto opened = Wal::open(path, 0, /*fsync_on_append=*/false);
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    EXPECT_TRUE(opened->records.empty());
    auto& wal = *opened->wal;
    for (int i = 0; i < 5; ++i) {
      auto seq = wal.append(WalRecordType::kStatement,
                            bytes_of("stmt" + std::to_string(i)));
      ASSERT_TRUE(seq.is_ok());
      EXPECT_EQ(*seq, static_cast<std::uint64_t>(i + 1));
    }
  }
  auto reopened = Wal::open(path, 0, false);
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened->truncated_bytes, 0u);
  ASSERT_EQ(reopened->records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(reopened->records[i].seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(reopened->records[i].payload,
              bytes_of("stmt" + std::to_string(i)));
  }
  EXPECT_EQ(reopened->wal->next_seq(), 6u);
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  TempDir dir("wal_torn");
  const std::string path = dir.sub("wal.gwal");
  {
    auto opened = Wal::open(path, 0, false);
    ASSERT_TRUE(opened.is_ok());
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(
          opened->wal->append(WalRecordType::kStatement, bytes_of("abcdef"))
              .is_ok());
  }
  const auto full = slurp(path);
  // Chop the file anywhere inside the last record: mid-payload, mid-frame,
  // and right after the previous record (a zero-byte tear).
  const std::size_t last_record = kWalFrameBytes + 6;
  for (std::size_t cut = 1; cut <= last_record; cut += 3) {
    std::vector<std::uint8_t> torn(full.begin(),
                                   full.end() - static_cast<long>(cut));
    dump(path, torn);
    auto r = Wal::open(path, 0, false);
    ASSERT_TRUE(r.is_ok()) << "cut " << cut << ": "
                           << r.status().to_string();
    ASSERT_EQ(r->records.size(), 2u) << "cut " << cut;
    EXPECT_EQ(r->truncated_bytes, last_record - cut) << "cut " << cut;
    // The truncation is physical: a second open is clean.
    auto again = Wal::open(path, 0, false);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again->truncated_bytes, 0u);
    EXPECT_EQ(again->records.size(), 2u);
  }
}

TEST(WalTest, CorruptRecordDropsItAndEverythingAfter) {
  TempDir dir("wal_flip");
  const std::string path = dir.sub("wal.gwal");
  {
    auto opened = Wal::open(path, 0, false);
    ASSERT_TRUE(opened.is_ok());
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(
          opened->wal->append(WalRecordType::kStatement, bytes_of("abcdef"))
              .is_ok());
  }
  const auto full = slurp(path);
  // Flip one byte inside the SECOND record's payload: record 1 survives,
  // records 2 and 3 are indistinguishable from a torn tail and drop.
  const std::size_t second = kWalHeaderBytes + (kWalFrameBytes + 6) +
                             kWalFrameBytes + 2;
  auto bad = full;
  bad[second] ^= 0xFF;
  dump(path, bad);
  auto r = Wal::open(path, 0, false);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].seq, 1u);
  EXPECT_GT(r->truncated_bytes, 0u);
  // Appending after the truncation continues the sequence safely.
  auto seq = r->wal->append(WalRecordType::kStatement, bytes_of("x"));
  ASSERT_TRUE(seq.is_ok());
  EXPECT_EQ(*seq, 2u);
}

TEST(WalTest, CorruptHeaderIsATypedError) {
  TempDir dir("wal_hdr");
  const std::string path = dir.sub("wal.gwal");
  { ASSERT_TRUE(Wal::open(path, 9, false).is_ok()); }
  auto bytes = slurp(path);
  ASSERT_EQ(bytes.size(), kWalHeaderBytes);
  bytes[0] ^= 0x01;  // break the magic
  dump(path, bytes);
  auto r = Wal::open(path, 0, false);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(WalTest, RotateKeepsSequenceNumbersGlobal) {
  TempDir dir("wal_rot");
  const std::string path = dir.sub("wal.gwal");
  auto opened = Wal::open(path, 0, false);
  ASSERT_TRUE(opened.is_ok());
  auto& wal = *opened->wal;
  ASSERT_TRUE(wal.append(WalRecordType::kStatement, bytes_of("a")).is_ok());
  ASSERT_TRUE(wal.append(WalRecordType::kStatement, bytes_of("b")).is_ok());
  ASSERT_TRUE(wal.rotate(/*snapshot_seq=*/2).is_ok());
  auto seq = wal.append(WalRecordType::kStatement, bytes_of("c"));
  ASSERT_TRUE(seq.is_ok());
  EXPECT_EQ(*seq, 3u);  // seqs survive rotation

  auto reopened = Wal::open(path, 0, false);
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened->header_snapshot_seq, 2u);
  ASSERT_EQ(reopened->records.size(), 1u);  // pre-rotation records gone
  EXPECT_EQ(reopened->records[0].seq, 3u);
}

// ---- Database integration: crash, recovery, fail-stop ----------------------

TEST(DurableDatabaseTest, WalReplayRecoversUncheckpointedState) {
  TempDir dir("db_replay");
  write_people_csvs(dir);
  std::string before;
  graph::GraphView before_graph;
  {
    server::Database db(durable_options(dir));
    ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    populate(db);
    before = state_fingerprint(db);
    before_graph = db.graph();
    // "Crash": destroy without checkpoint. Everything lives in the WAL.
  }
  EXPECT_FALSE(fs::exists(dir.sub("store/snapshot.gsnp")));

  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  EXPECT_EQ(state_fingerprint(db), before);
  graph::expect_same_graph(db.graph(), before_graph);
  const metrics::Snapshot m = db.metrics_snapshot();
  ASSERT_NE(metrics::find(m, "store.recovery.from_snapshot"), nullptr);
  EXPECT_EQ(metrics::value(m, "store.recovery.from_snapshot"), 0u);
  // 4 DDL + 2 ingest
  EXPECT_EQ(metrics::value(m, "store.recovery.records_applied"), 6u);
  EXPECT_EQ(metrics::value(m, "store.recovery.records_skipped"), 0u);

  // The recovered graph answers queries and accepts new WAL-logged writes.
  auto q = db.run_script(
      "select Person.age from graph Person (name = 'ada')");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
  write_text_file(dir.sub("more.csv"), "don,62\n");
  ASSERT_TRUE(db.run_script("ingest table People 'more.csv'").is_ok());
}

TEST(DurableDatabaseTest, CheckpointThenReopenLoadsSnapshotOnly) {
  TempDir dir("db_ckpt");
  write_people_csvs(dir);
  std::string before;
  graph::GraphView before_graph;
  {
    server::Database db(durable_options(dir));
    populate(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
    before = state_fingerprint(db);
    before_graph = db.graph();
  }
  ASSERT_TRUE(fs::exists(dir.sub("store/snapshot.gsnp")));

  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  EXPECT_EQ(state_fingerprint(db), before);
  graph::expect_same_graph(db.graph(), before_graph);
  const metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "store.recovery.from_snapshot"), 1u);
  // The WAL was rotated.
  EXPECT_EQ(metrics::value(m, "store.recovery.records_applied"), 0u);
}

TEST(DurableDatabaseTest, CheckpointPlusWalTailCompose) {
  TempDir dir("db_mixed");
  write_people_csvs(dir);
  write_text_file(dir.sub("more.csv"), "don,62\nleslie,58\n");
  std::string before;
  graph::GraphView before_graph;
  {
    server::Database db(durable_options(dir));
    populate(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
    // Post-checkpoint mutations land only in the WAL tail.
    ASSERT_TRUE(db.run_script("ingest table People 'more.csv'").is_ok());
    before = state_fingerprint(db);
    before_graph = db.graph();
  }
  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  EXPECT_EQ(state_fingerprint(db), before);
  graph::expect_same_graph(db.graph(), before_graph);
  EXPECT_EQ((*db.table("People"))->num_rows(), 6u);
  const metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "store.recovery.from_snapshot"), 1u);
  // Just the tail ingest.
  EXPECT_EQ(metrics::value(m, "store.recovery.records_applied"), 1u);
}

TEST(DurableDatabaseTest, CorruptSnapshotMeansFailStop) {
  TempDir dir("db_failstop");
  write_people_csvs(dir);
  {
    server::Database db(durable_options(dir));
    populate(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
  }
  auto bytes = slurp(dir.sub("store/snapshot.gsnp"));
  bytes[bytes.size() / 2] ^= 0x10;
  dump(dir.sub("store/snapshot.gsnp"), bytes);

  server::Database db(durable_options(dir));
  ASSERT_FALSE(db.store_status().is_ok());
  EXPECT_EQ(db.store_status().code(), StatusCode::kIoError);
  // Fail-stop: every script reports the open error; nothing runs over
  // partial state.
  auto r = db.run_script("create table T(x integer)");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(db.checkpoint().is_ok());
}

TEST(DurableDatabaseTest, WalNewerThanSnapshotIsRefused) {
  TempDir dir("db_mismatch");
  write_people_csvs(dir);
  {
    server::Database db(durable_options(dir));
    populate(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
  }
  // Delete the snapshot but keep the rotated WAL: its header says
  // snapshot_seq=6, so opening without that snapshot must refuse rather
  // than silently recover an empty database.
  fs::remove(dir.sub("store/snapshot.gsnp"));
  server::Database db(durable_options(dir));
  ASSERT_FALSE(db.store_status().is_ok());
  EXPECT_EQ(db.store_status().code(), StatusCode::kIoError);
}

TEST(DurableDatabaseTest, TornWalTailRecoversPrefix) {
  TempDir dir("db_torn");
  write_people_csvs(dir);
  {
    server::Database db(durable_options(dir));
    populate(db);
  }
  auto bytes = slurp(dir.sub("store/wal.gwal"));
  bytes.resize(bytes.size() - 5);  // tear the last record mid-frame
  dump(dir.sub("store/wal.gwal"), bytes);

  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  const metrics::Snapshot m = db.metrics_snapshot();
  // The last ingest was dropped.
  EXPECT_EQ(metrics::value(m, "store.recovery.records_applied"), 5u);
  EXPECT_GT(metrics::value(m, "store.recovery.truncated_bytes"), 0u);
  EXPECT_EQ((*db.table("People"))->num_rows(), 4u);
  EXPECT_EQ((*db.table("Knows"))->num_rows(), 0u);  // its ingest was torn
}

/// `rows` CSV records of table Every: every kind, NULLs (empty unquoted
/// fields), empty strings, -0.0 and int64 extremes.
std::string every_kind_csv(std::size_t rows, std::uint64_t seed) {
  const char* const bools[] = {"true", "false", ""};
  const char* const ints[] = {"", "0", "-9223372036854775808",
                              "9223372036854775807"};
  const char* const doubles[] = {"", "-0.0", "2.5", "1e300"};
  const char* const strings[] = {"", "\"\"", "alpha", "eight ch"};
  const char* const dates[] = {"", "2008-06-20", "1970-01-01"};
  SplitMix64 rng(seed);
  const auto pick = [&](const auto& options) {
    return std::string(options[rng.next() % std::size(options)]);
  };
  std::string csv;
  for (std::size_t r = 0; r < rows; ++r) {
    const bool edge = rng.next() % 2 == 0;
    csv += pick(bools) + ",";
    csv += (edge ? pick(ints) : std::to_string(rng.next() % 100000)) + ",";
    csv += (edge ? pick(doubles) : std::to_string(r) + ".25") + ",";
    csv += (edge ? pick(strings) : "s" + std::to_string(r % 500)) + ",";
    csv += pick(dates) + "\n";
  }
  return csv;
}

TEST(DurableDatabaseTest, MidChunkIngestRangesReplay) {
  // The second ingest's rows start mid-chunk (row 1500) and cross a seal
  // (row 2048), so its WAL record is encoded from a range that starts
  // inside a chunk's validity words.
  TempDir dir("db_mid_chunk");
  write_text_file(dir.sub("a.csv"), every_kind_csv(1500, 1));
  write_text_file(dir.sub("b.csv"), every_kind_csv(700, 2));
  std::vector<std::uint8_t> before;
  {
    server::Database db(durable_options(dir));
    auto r = db.run_script(
        "create table Every(b boolean, i integer, x float, s varchar(8), "
        "d date)\n"
        "ingest table Every 'a.csv'\n"
        "ingest table Every 'b.csv'\n");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const storage::Table& every = **db.table("Every");
    ASSERT_EQ(every.num_rows(), 2200u);
    before = wire_oracle::encode_rows(every, 0, every.num_rows());
  }
  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  EXPECT_EQ(metrics::value(db.metrics_snapshot(),
                           "store.recovery.records_applied"),
            3u);
  const storage::Table& every = **db.table("Every");
  ASSERT_EQ(every.num_rows(), 2200u);
  // Boxed cell by cell, bit for bit (-0.0 included).
  EXPECT_EQ(wire_oracle::encode_rows(every, 0, every.num_rows()), before);
}

TEST(DurableDatabaseTest, BackgroundCheckpointRunsConcurrently) {
  TempDir dir("db_bg");
  write_people_csvs(dir);
  auto options = durable_options(dir);
  options.checkpoint_interval_ms = 5;
  {
    server::Database db(options);
    populate(db);
    // Keep mutating and querying while the background thread checkpoints.
    // The TSan CI job runs this test to validate the locking.
    for (int i = 0; i < 20; ++i) {
      write_text_file(dir.sub("row.csv"),
                      "p" + std::to_string(i) + ",1\n");
      ASSERT_TRUE(db.run_script("ingest table People 'row.csv'").is_ok());
      ASSERT_TRUE(db.run_script("select name from table People").is_ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(db.checkpoint().is_ok());
    EXPECT_GE(metrics::value(db.metrics_snapshot(), "store.snapshot.written"),
              1u);
  }
  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok());
  EXPECT_EQ((*db.table("People"))->num_rows(), 24u);
}

// ---- Restart round-trip on the Berlin dataset (satellite 4) ----------------

relational::ParamMap berlin_params() {
  relational::ParamMap params;
  params.emplace("Country1", Value::varchar("US"));
  params.emplace("Country2", Value::varchar("DE"));
  params.emplace("Product1", Value::varchar("p0"));
  return params;
}

std::string query_fingerprint(server::Database& db) {
  std::ostringstream out;
  for (const std::string& q : {bsbm::berlin_q1(), bsbm::berlin_q2()}) {
    auto r = db.run_script(q, berlin_params());
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return {};
    storage::write_csv(*r->back().table, out);
    out << "--\n";
  }
  return out.str();
}

TEST(DurableDatabaseTest, BerlinRestartRoundTripIsByteIdentical) {
  TempDir dir("db_berlin");
  std::string before;
  graph::GraphView before_graph;
  {
    // bsbm::generate appends rows directly (bypassing the statement path
    // and thus the WAL), so the checkpoint is what persists the dataset.
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(120, 17), durable_options(dir));
    ASSERT_TRUE(db.is_ok()) << db.status().to_string();
    ASSERT_TRUE((*db)->checkpoint().is_ok());
    before = query_fingerprint(**db);
    before_graph = (*db)->graph();
    ASSERT_FALSE(before.empty());
  }
  server::Database db(durable_options(dir));
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  EXPECT_EQ(
      metrics::value(db.metrics_snapshot(), "store.recovery.from_snapshot"),
      1u);
  EXPECT_EQ(query_fingerprint(db), before);
  EXPECT_EQ(graph::expect_same_graph(db.graph(), before_graph),
            2 * before_graph.num_edge_types());
  EXPECT_EQ((*db.table("Products"))->num_rows(), 120u);
}

// ---- Streamed checkpoints ---------------------------------------------------

/// The WAL seq a snapshot image records (the first body field).
std::uint64_t snapshot_wal_seq(const std::vector<std::uint8_t>& image) {
  ByteReader r = store_reader(
      std::span<const std::uint8_t>(image).subspan(kSnapshotHeaderBytes));
  auto seq = r.u64();
  EXPECT_TRUE(seq.is_ok()) << seq.status().to_string();
  return seq.is_ok() ? *seq : 0;
}

/// A CSV batch of `rows` new Reviews of existing products and persons, with
/// ids no generated review uses, so ingesting it takes the delta path.
void write_review_batch(const std::string& path, int batch, int rows,
                        const bsbm::GeneratorConfig& config) {
  std::ostringstream text;
  for (int i = 0; i < rows; ++i) {
    const std::size_t k = static_cast<std::size_t>(batch * rows + i);
    text << "rx" << k << ",Review," << bsbm::product_id(k % config.num_products)
         << "," << bsbm::person_id(k % config.num_persons)
         << ",2008-03-01,T" << k % 100 << ",txt," << 1 + k % 10
         << ",2,3,4,gen,2008-03-02\n";
  }
  write_text_file(path, text.str());
}

TEST(DurableDatabaseTest, CheckpointFileIsByteIdenticalToEncodeSnapshot) {
  TempDir dir("db_stream");
  const auto config = bsbm::GeneratorConfig::derive(300, 17);
  auto db = bsbm::make_populated_database(config, durable_options(dir));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  const std::string snapshot = dir.sub("store/snapshot.gsnp");

  ASSERT_TRUE((*db)->checkpoint().is_ok());
  auto file = slurp(snapshot);
  ASSERT_GT(file.size(), 4 * kWriterBufferBytes);  // many buffer flushes
  const std::uint64_t seq = snapshot_wal_seq(file);
  EXPECT_EQ(file, encode_snapshot((*db)->context(), seq));

  // Delta ingests grow tables, vertex and edge types in place of a rebuild;
  // the streamed file must follow them byte for byte.
  for (int b = 0; b < 2; ++b) {
    write_review_batch(dir.sub("reviews.csv"), b, 40, config);
    auto r = (*db)->run_script("ingest table Reviews 'reviews.csv'");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }
  ASSERT_GE(metrics::value((*db)->metrics_snapshot(), "mvcc.ingest.delta"),
            2u);
  ASSERT_TRUE((*db)->checkpoint().is_ok());
  file = slurp(snapshot);
  EXPECT_EQ(snapshot_wal_seq(file), seq + 2);
  EXPECT_EQ(file, encode_snapshot((*db)->context(), seq + 2));
}

/// Makes a directory unwritable to the calling thread for the guard's
/// lifetime. Mode 0555 alone does not stop root, so a root caller also
/// takes a non-root filesystem uid — per thread on Linux — until the guard
/// ends. unwritable() probes whether that worked.
class UnwritableDir {
 public:
  explicit UnwritableDir(std::string path) : path_(std::move(path)) {
    fs::permissions(path_, fs::perms::owner_write | fs::perms::group_write |
                               fs::perms::others_write,
                    fs::perm_options::remove);
    if (as_root_) ::setfsuid(kNobody);
  }
  ~UnwritableDir() {
    if (as_root_) ::setfsuid(0);
    fs::permissions(path_, fs::perms::owner_write, fs::perm_options::add);
  }
  UnwritableDir(const UnwritableDir&) = delete;
  UnwritableDir& operator=(const UnwritableDir&) = delete;

  bool unwritable() const {
    const std::string probe = path_ + "/probe";
    const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) return true;
    ::close(fd);
    ::unlink(probe.c_str());
    return false;
  }

 private:
  static constexpr uid_t kNobody = 65534;
  std::string path_;
  bool as_root_ = ::geteuid() == 0;
};

TEST(DurableDatabaseTest, FailedCheckpointLeavesSnapshotAndWalAndKeepsServing) {
  TempDir dir("db_ckpt_fail");
  write_people_csvs(dir);
  write_text_file(dir.sub("more.csv"), "don,62\n");
  write_text_file(dir.sub("late.csv"), "leslie,58\n");
  const std::string snapshot = dir.sub("store/snapshot.gsnp");
  const std::string wal = dir.sub("store/wal.gwal");
  std::string before;
  {
    server::Database db(durable_options(dir));
    populate(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
    ASSERT_TRUE(db.run_script("ingest table People 'more.csv'").is_ok());
    const auto snapshot_before = slurp(snapshot);
    const auto wal_before = slurp(wal);
    auto expect_failed_checkpoint_left_no_trace = [&] {
      const Status s = db.checkpoint();
      ASSERT_FALSE(s.is_ok());
      EXPECT_EQ(s.code(), StatusCode::kIoError) << s.to_string();
      EXPECT_EQ(slurp(snapshot), snapshot_before);
      EXPECT_FALSE(fs::exists(fs::symlink_status(snapshot + ".tmp")));
      EXPECT_EQ(slurp(wal), wal_before);  // not rotated: its tail is needed
    };

    // Disk full: the temp file opens (its name leads to /dev/full), then
    // the first write fails and the temp file must be removed.
    fs::create_symlink("/dev/full", snapshot + ".tmp");
    expect_failed_checkpoint_left_no_trace();
    {
      UnwritableDir store_dir(dir.sub("store"));
      if (!store_dir.unwritable()) {
        GTEST_SKIP() << "cannot make a directory unwritable to this process";
      }
      expect_failed_checkpoint_left_no_trace();
    }

    // The failure is the checkpoint's alone: reads and logged writes go on.
    EXPECT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    ASSERT_TRUE(db.run_script("select name from table People").is_ok());
    ASSERT_TRUE(db.run_script("ingest table People 'late.csv'").is_ok());
    before = state_fingerprint(db);
    ASSERT_TRUE(db.checkpoint().is_ok());
  }

  server::Database reopened(durable_options(dir));
  ASSERT_TRUE(reopened.store_status().is_ok());
  EXPECT_EQ(state_fingerprint(reopened), before);
  EXPECT_EQ((*reopened.table("People"))->num_rows(), 6u);
}

}  // namespace
}  // namespace gems::store
