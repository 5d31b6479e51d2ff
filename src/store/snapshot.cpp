#include "store/snapshot.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/crc32.hpp"
#include "common/scratch_arena.hpp"
#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "store/format.hpp"

namespace gems::store {

namespace {

using graph::EdgeTypeId;
using graph::VertexTypeId;
using storage::Column;
using storage::ColumnDef;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::TypeKind;

template <typename W>
void encode_bitset(W& w, const DynamicBitset& b) {
  w.u64(b.size());
  write_pod_array<std::uint64_t>(w, b.words());
}

Result<DynamicBitset> decode_bitset(ByteReader& r, const char* what) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint64_t size, r.u64());
  GEMS_ASSIGN_OR_RETURN(std::pmr::vector<std::uint64_t> words,
                        read_pod_array<std::uint64_t>(r, what));
  auto bits = DynamicBitset::from_words(
      static_cast<std::size_t>(size),
      std::vector<std::uint64_t>(words.begin(), words.end()));
  if (!bits.is_ok()) {
    return r.error_at(at, what + (": " + bits.status().message()));
  }
  return std::move(bits).value();
}

template <typename W>
void encode_table(W& w, const Table& t) {
  w.str(t.name());
  w.u32(static_cast<std::uint32_t>(t.schema().num_columns()));
  for (const ColumnDef& def : t.schema().columns()) {
    w.str(def.name);
    w.u8(static_cast<std::uint8_t>(def.type.kind));
    w.u32(def.type.varchar_length);
  }
  w.u64(t.num_rows());
  // Chunks are written back to back: the bytes are those of one flat
  // array per column and one packed validity bitmap, as every snapshot
  // version has stored them.
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(static_cast<storage::ColumnIndex>(c));
    switch (col.type().kind) {
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate:
        write_pod_array(w, col.int_chunks());
        break;
      case TypeKind::kDouble:
        write_pod_array(w, col.double_chunks());
        break;
      case TypeKind::kVarchar:
        write_pod_array(w, col.string_chunks());
        break;
    }
    w.u64(col.size());
    w.u64((col.size() + 63) / 64);
    for (std::size_t k = 0; k < col.num_chunks(); ++k) {
      const std::span<const std::uint64_t> words = col.valid_words(k);
      w.bytes({reinterpret_cast<const std::uint8_t*>(words.data()),
               words.size() * sizeof(std::uint64_t)});
    }
  }
}

Result<TablePtr> decode_table(ByteReader& r, StringPool& pool) {
  const std::size_t table_at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::string name, r.str());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t ncols, r.u32());
  if (ncols > (1u << 20)) {
    return r.error_at(table_at, "table '" + name +
                                    "': implausible column count " +
                                    std::to_string(ncols));
  }
  std::vector<ColumnDef> defs;
  defs.reserve(ncols);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    ColumnDef def;
    GEMS_ASSIGN_OR_RETURN(def.name, r.str());
    GEMS_ASSIGN_OR_RETURN(def.type.kind,
                          r.enum8(TypeKind::kDate, "column kind"));
    GEMS_ASSIGN_OR_RETURN(def.type.varchar_length, r.u32());
    defs.push_back(std::move(def));
  }
  auto schema = Schema::create(std::move(defs));
  if (!schema.is_ok()) {
    return r.error_at(table_at,
                      "table '" + name + "': " + schema.status().message());
  }
  GEMS_ASSIGN_OR_RETURN(std::uint64_t nrows, r.u64());
  // Each column's array is read here, copied into the table's chunks and
  // released before the next is read, so the arena reuses one column's
  // pages; it is unmapped when the table is done.
  ScratchArena scratch;
  auto table =
      std::make_shared<Table>(name, std::move(schema).value(), pool);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    const std::size_t col_at = r.pos();
    Column& col = table->column_mut(c);
    Status load = Status::ok();
    switch (col.type().kind) {
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate: {
        GEMS_ASSIGN_OR_RETURN(std::pmr::vector<std::int64_t> data,
                              read_pod_array<std::int64_t>(r, "int column",
                                                           &scratch));
        GEMS_ASSIGN_OR_RETURN(DynamicBitset bits,
                              decode_bitset(r, "column validity"));
        load = col.load<std::int64_t>(data, bits);
        break;
      }
      case TypeKind::kDouble: {
        GEMS_ASSIGN_OR_RETURN(std::pmr::vector<double> data,
                              read_pod_array<double>(r, "double column",
                                                     &scratch));
        GEMS_ASSIGN_OR_RETURN(DynamicBitset bits,
                              decode_bitset(r, "column validity"));
        load = col.load<double>(data, bits);
        break;
      }
      case TypeKind::kVarchar: {
        GEMS_ASSIGN_OR_RETURN(std::pmr::vector<StringId> data,
                              read_pod_array<StringId>(r, "varchar column",
                                                       &scratch));
        for (const StringId id : data) {
          if (id != kInvalidStringId && id >= pool.size()) {
            return r.error_at(col_at, "table '" + name + "': string id " +
                                          std::to_string(id) +
                                          " outside pool (" +
                                          std::to_string(pool.size()) +
                                          " strings)");
          }
        }
        GEMS_ASSIGN_OR_RETURN(DynamicBitset bits,
                              decode_bitset(r, "column validity"));
        load = col.load<StringId>(data, bits);
        break;
      }
    }
    if (!load.is_ok()) {
      return r.error_at(col_at, "table '" + name + "': " + load.message());
    }
  }
  const Status finish = table->finish_restore();
  if (!finish.is_ok()) {
    return r.error_at(table_at, "table '" + name + "': " + finish.message());
  }
  if (table->num_rows() != nrows) {
    return r.error_at(table_at, "table '" + name + "': row count " +
                                    std::to_string(table->num_rows()) +
                                    " != declared " + std::to_string(nrows));
  }
  return table;
}

/// Writes the snapshot body to a ByteWriter (encode_snapshot) or a
/// FileWriter (write_snapshot_file), which produce the same bytes, or
/// counts it with a ByteCounter (snapshot_size).
template <typename W>
void encode_body(const exec::ExecContext& ctx, std::uint64_t wal_seq, W& w) {
  w.u64(wal_seq);

  // String pool, in id order (deterministic; ids in column data stay
  // valid because restore re-interns in the same order). The pool is
  // database-global and append-only, and checkpoints encode pinned epochs
  // outside every database lock while a writer may intern. Ids are
  // assigned densely and an id's string never changes, so the ids below
  // one size() read are a consistent prefix that covers every id the
  // pinned epoch references; they stream out a batch of views per lock.
  const std::size_t num_strings = ctx.pool->size();
  w.u64(num_strings);
  std::vector<StringId> ids;
  std::vector<std::string_view> views;
  for (std::size_t first = 0; first < num_strings; first += kChunkRows) {
    ids.resize(std::min(kChunkRows, num_strings - first));
    views.resize(ids.size());
    std::iota(ids.begin(), ids.end(), static_cast<StringId>(first));
    ctx.pool->view_batch(ids, views.data());
    for (const std::string_view s : views) w.str(s);
  }

  // Catalog tables, in name order (names() sorts).
  const std::vector<std::string> names = ctx.tables.names();
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    encode_table(w, *ctx.tables.find(name).value());
  }

  // DDL declarations, as a single GraQL IR script (reuses the IR codec
  // for the expression trees inside the decls).
  graql::Script decls;
  decls.statements.reserve(ctx.vertex_decls.size() + ctx.edge_decls.size());
  for (const auto& d : ctx.vertex_decls) {
    decls.statements.push_back(graql::CreateVertexStmt{d, {}});
  }
  for (const auto& d : ctx.edge_decls) {
    decls.statements.push_back(graql::CreateEdgeStmt{d, {}});
  }
  w.u32(static_cast<std::uint32_t>(ctx.vertex_decls.size()));
  w.u32(static_cast<std::uint32_t>(ctx.edge_decls.size()));
  const std::vector<std::uint8_t> script = graql::encode_script(decls);
  write_pod_array<std::uint8_t>(w, script);

  // Named subgraphs (std::map iteration: name order).
  w.u32(static_cast<std::uint32_t>(ctx.subgraphs.size()));
  for (const auto& [name, sub] : ctx.subgraphs) {
    w.str(name);
    std::uint32_t nv = 0, ne = 0;
    for (std::size_t t = 0; t < ctx.graph.num_vertex_types(); ++t) {
      if (sub->vertices(static_cast<VertexTypeId>(t)) != nullptr) ++nv;
    }
    for (std::size_t t = 0; t < ctx.graph.num_edge_types(); ++t) {
      if (sub->edges(static_cast<EdgeTypeId>(t)) != nullptr) ++ne;
    }
    w.u32(nv);
    for (std::size_t t = 0; t < ctx.graph.num_vertex_types(); ++t) {
      const DynamicBitset* bits = sub->vertices(static_cast<VertexTypeId>(t));
      if (bits == nullptr) continue;
      w.u16(static_cast<std::uint16_t>(t));
      encode_bitset(w, *bits);
    }
    w.u32(ne);
    for (std::size_t t = 0; t < ctx.graph.num_edge_types(); ++t) {
      const DynamicBitset* bits = sub->edges(static_cast<EdgeTypeId>(t));
      if (bits == nullptr) continue;
      w.u16(static_cast<std::uint16_t>(t));
      encode_bitset(w, *bits);
    }
  }
}

/// Analyzes each of `ctx`'s declarations, in declaration order, against
/// the schemas of its tables: an error naming the first that does not
/// analyze.
Status analyze_declarations(const exec::ExecContext& ctx) {
  graql::MetaCatalog meta;
  for (const std::string& name : ctx.tables.names()) {
    GEMS_RETURN_IF_ERROR(
        meta.add_table(name, ctx.tables.find(name).value()->schema()));
  }
  const auto analyze = [&meta](const graql::Statement& decl,
                               const std::string& what) {
    const Status analyzed = graql::analyze_statement(decl, meta);
    if (analyzed.is_ok()) return analyzed;
    return invalid_argument("declaration of " + what + ": " +
                            analyzed.message());
  };
  for (const graph::VertexDecl& d : ctx.vertex_decls) {
    GEMS_RETURN_IF_ERROR(analyze(graql::CreateVertexStmt{d, {}},
                                 "vertex type '" + d.name + "'"));
  }
  for (const graph::EdgeDecl& d : ctx.edge_decls) {
    GEMS_RETURN_IF_ERROR(analyze(graql::CreateEdgeStmt{d, {}},
                                 "edge type '" + d.name + "'"));
  }
  return Status::ok();
}

Status decode_body(ByteReader& r, exec::ExecContext& ctx,
                   SnapshotInfo& info) {
  GEMS_ASSIGN_OR_RETURN(info.wal_seq, r.u64());

  // Pool: re-intern in id order so ids referenced by column data and row
  // keys stay stable.
  GEMS_ASSIGN_OR_RETURN(std::uint64_t num_strings, r.u64());
  for (std::uint64_t i = 0; i < num_strings; ++i) {
    const std::size_t at = r.pos();
    GEMS_ASSIGN_OR_RETURN(std::string s, r.str());
    const StringId id = ctx.pool->intern(s);
    if (id != static_cast<StringId>(i)) {
      return r.error_at(at, "pool string " + std::to_string(i) +
                                " re-interned to id " + std::to_string(id) +
                                " (duplicate in pool section)");
    }
  }

  GEMS_ASSIGN_OR_RETURN(std::uint32_t num_tables, r.u32());
  for (std::uint32_t i = 0; i < num_tables; ++i) {
    GEMS_ASSIGN_OR_RETURN(TablePtr table, decode_table(r, *ctx.pool));
    GEMS_RETURN_IF_ERROR(ctx.tables.add(std::move(table)));
  }

  GEMS_ASSIGN_OR_RETURN(std::uint32_t num_vdecls, r.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t num_edecls, r.u32());
  const std::size_t decls_at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::pmr::vector<std::uint8_t> script_bytes,
                        read_pod_array<std::uint8_t>(r, "decl script"));
  auto script = graql::decode_script(script_bytes);
  if (!script.is_ok()) {
    return r.error_at(decls_at, "decl script: " + script.status().message());
  }
  if (script->statements.size() !=
      static_cast<std::size_t>(num_vdecls) + num_edecls) {
    return r.error_at(decls_at, "decl script statement count mismatch");
  }
  for (std::size_t i = 0; i < script->statements.size(); ++i) {
    graql::Statement& stmt = script->statements[i];
    if (i < num_vdecls) {
      auto* s = std::get_if<graql::CreateVertexStmt>(&stmt);
      if (s == nullptr) {
        return r.error_at(decls_at, "decl script: statement " +
                                        std::to_string(i) +
                                        " is not a vertex declaration");
      }
      ctx.vertex_decls.push_back(std::move(s->decl));
    } else {
      auto* s = std::get_if<graql::CreateEdgeStmt>(&stmt);
      if (s == nullptr) {
        return r.error_at(decls_at, "decl script: statement " +
                                        std::to_string(i) +
                                        " is not an edge declaration");
      }
      ctx.edge_decls.push_back(std::move(s->decl));
    }
  }

  // The graph is a view over the tables (paper Eq. 2), built here by the
  // set-up path. The declarations are input like any script, so the
  // analyzer checks them against the decoded tables first.
  const Status analyzed = analyze_declarations(ctx);
  if (!analyzed.is_ok()) {
    return r.error_at(decls_at, "decl script: " + analyzed.message());
  }
  if (!script->statements.empty()) {
    const Status built = ctx.rebuild_graph();
    if (!built.is_ok()) {
      return r.error_at(decls_at, "graph build: " + built.message());
    }
  }
  const std::size_t num_vtypes = ctx.graph.num_vertex_types();
  const std::size_t num_etypes = ctx.graph.num_edge_types();

  GEMS_ASSIGN_OR_RETURN(std::uint32_t num_subgraphs, r.u32());
  for (std::uint32_t i = 0; i < num_subgraphs; ++i) {
    const std::size_t at = r.pos();
    GEMS_ASSIGN_OR_RETURN(std::string name, r.str());
    auto sub = std::make_shared<exec::Subgraph>(name);
    GEMS_ASSIGN_OR_RETURN(std::uint32_t nv, r.u32());
    for (std::uint32_t j = 0; j < nv; ++j) {
      GEMS_ASSIGN_OR_RETURN(std::uint16_t type, r.u16());
      GEMS_ASSIGN_OR_RETURN(DynamicBitset bits,
                            decode_bitset(r, "subgraph vertices"));
      if (type >= num_vtypes ||
          bits.size() !=
              ctx.graph.vertex_type(type).num_vertices()) {
        return r.error_at(
            at, "subgraph '" + name + "': bad vertex membership entry");
      }
      sub->vertices(type, bits.size()) = std::move(bits);
    }
    GEMS_ASSIGN_OR_RETURN(std::uint32_t ne, r.u32());
    for (std::uint32_t j = 0; j < ne; ++j) {
      GEMS_ASSIGN_OR_RETURN(std::uint16_t type, r.u16());
      GEMS_ASSIGN_OR_RETURN(DynamicBitset bits,
                            decode_bitset(r, "subgraph edges"));
      if (type >= num_etypes ||
          bits.size() != ctx.graph.edge_type(type).num_edges()) {
        return r.error_at(
            at, "subgraph '" + name + "': bad edge membership entry");
      }
      sub->edges(type, bits.size()) = std::move(bits);
    }
    ctx.subgraphs.emplace(std::move(name), std::move(sub));
  }

  return r.expect_end("snapshot body");
}

std::vector<std::uint8_t> encode_header(std::uint64_t body_len,
                                        std::uint32_t body_crc) {
  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotHeaderBytes);
  ByteWriter h(out);
  h.u32(kSnapshotMagic);
  h.u16(kSnapshotVersion);
  h.u16(0);  // reserved
  h.u64(body_len);
  h.u32(body_crc);
  h.u32(crc32(out));  // header CRC over the 20 bytes written so far
  return out;
}

}  // namespace

std::uint64_t snapshot_size(const exec::ExecContext& ctx,
                            std::uint64_t wal_seq) {
  ByteCounter counter;
  encode_body(ctx, wal_seq, counter);
  return kSnapshotHeaderBytes + counter.written();
}

std::vector<std::uint8_t> encode_snapshot(const exec::ExecContext& ctx,
                                          std::uint64_t wal_seq) {
  // A counting pass sizes the image, so the buffer is allocated once
  // instead of doubling its way up. The size is only a hint: the pool may
  // grow between the passes, and the vector then grows as usual.
  // The header's room is taken first and filled in once the body's length
  // and CRC are known, so the body is encoded in place, never copied.
  std::vector<std::uint8_t> out;
  out.reserve(snapshot_size(ctx, wal_seq));
  out.resize(kSnapshotHeaderBytes);
  ByteWriter w(out);
  encode_body(ctx, wal_seq, w);
  const auto body = std::span<const std::uint8_t>(out).subspan(
      kSnapshotHeaderBytes);
  const std::vector<std::uint8_t> header = encode_header(body.size(),
                                                         crc32(body));
  std::copy(header.begin(), header.end(), out.begin());
  return out;
}

Result<std::uint64_t> write_snapshot_file(const std::string& path,
                                          const exec::ExecContext& ctx,
                                          std::uint64_t wal_seq) {
  std::uint64_t body_len = 0;
  GEMS_RETURN_IF_ERROR(replace_file_durable(
      path, [&](int fd, const std::string& tmp) -> Status {
        // The header covers the body's length and CRC, so it goes in last:
        // a zeroed placeholder now, the real bytes at offset 0 at the end.
        const std::uint8_t placeholder[kSnapshotHeaderBytes] = {};
        GEMS_RETURN_IF_ERROR(write_all(fd, placeholder, tmp));
        FileWriter w(fd, tmp);
        encode_body(ctx, wal_seq, w);
        GEMS_RETURN_IF_ERROR(w.finish());
        body_len = w.written();
        return pwrite_all(fd, encode_header(body_len, w.crc()), 0, tmp);
      }));
  return kSnapshotHeaderBytes + body_len;
}

Result<SnapshotInfo> decode_snapshot(std::span<const std::uint8_t> bytes,
                                     exec::ExecContext& ctx) {
  if (ctx.pool == nullptr) {
    return internal_error("decode_snapshot: context has no string pool");
  }
  if (ctx.pool->size() != 0 || ctx.tables.size() != 0) {
    return internal_error(
        "decode_snapshot: context must be fresh (non-empty pool or catalog)");
  }
  if (bytes.size() < kSnapshotHeaderBytes) {
    return io_error("snapshot truncated: " + std::to_string(bytes.size()) +
                    " bytes, header needs " +
                    std::to_string(kSnapshotHeaderBytes));
  }
  ByteReader h = store_reader(bytes.subspan(0, kSnapshotHeaderBytes));
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, h.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint16_t version, h.u16());
  GEMS_ASSIGN_OR_RETURN(std::uint16_t reserved, h.u16());
  GEMS_ASSIGN_OR_RETURN(std::uint64_t body_len, h.u64());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t body_crc, h.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t header_crc, h.u32());
  if (crc32(bytes.subspan(0, kSnapshotHeaderBytes - 4)) != header_crc) {
    return io_error("snapshot header CRC mismatch (corrupt header)");
  }
  if (magic != kSnapshotMagic) {
    return io_error("not a GEMS snapshot (bad magic)");
  }
  if (version != kSnapshotVersion) {
    return io_error("unsupported snapshot version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kSnapshotVersion) + ")");
  }
  (void)reserved;
  if (body_len != bytes.size() - kSnapshotHeaderBytes) {
    return io_error("snapshot body length " + std::to_string(body_len) +
                    " != file body of " +
                    std::to_string(bytes.size() - kSnapshotHeaderBytes) +
                    " bytes (truncated or padded file)");
  }
  const auto body = bytes.subspan(kSnapshotHeaderBytes);
  if (crc32(body) != body_crc) {
    return io_error("snapshot body CRC mismatch (corrupt body)");
  }

  SnapshotInfo info;
  info.body_bytes = body.size();
  ByteReader r = store_reader(body);
  GEMS_RETURN_IF_ERROR(decode_body(r, ctx, info));
  return info;
}

}  // namespace gems::store
