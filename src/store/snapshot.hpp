// Versioned, checksummed binary snapshots of the database state: string
// pool, columnar tables, DDL declarations and named subgraphs. The graph
// is not in the image: a vertex or edge type is a view over tables (paper
// Eqs. 1-2), so recovery analyzes the declarations against the decoded
// tables and builds the graph with ExecContext::rebuild_graph(), the
// set-up path — no CSV parsing. Ingest keeps the served graph equal to
// that build (delta == rebuild), so recovered == pre-crash.
//
// File image = 24-byte header + body:
//   u32 magic "GSN1" | u16 version | u16 reserved | u64 body_len |
//   u32 body_crc32 | u32 header_crc32 (over the first 20 bytes)
// Both CRCs are validated before any body field is interpreted, so a
// bit-flip anywhere in the file is reported as a typed kIoError, never
// acted on.
//
// Encoding is deterministic: the pool is written in id order, tables in
// name order, declarations in declaration order, subgraphs in map order.
// Two snapshots of the same database state are byte-identical (tested),
// which makes snapshot diffs meaningful and checkpoints idempotent. One encoder feeds
// both outputs — an in-memory image and a streamed file — so they carry
// the same bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "exec/executor.hpp"

namespace gems::store {

inline constexpr std::uint32_t kSnapshotMagic = 0x47534E31;  // "GSN1"
inline constexpr std::uint16_t kSnapshotVersion = 3;
inline constexpr std::size_t kSnapshotHeaderBytes = 24;

struct SnapshotInfo {
  /// WAL sequence number the snapshot is consistent with: replay skips
  /// records with seq <= wal_seq.
  std::uint64_t wal_seq = 0;
  std::uint64_t body_bytes = 0;
};

/// Size in bytes of the image encode_snapshot(ctx, wal_seq) gives now,
/// counted by a pass over `ctx` that writes nothing.
std::uint64_t snapshot_size(const exec::ExecContext& ctx,
                            std::uint64_t wal_seq);

/// Serializes `ctx` to a complete snapshot file image (header + body).
std::vector<std::uint8_t> encode_snapshot(const exec::ExecContext& ctx,
                                          std::uint64_t wal_seq);

/// Writes the same image as encode_snapshot to `path` by crash-safe
/// replacement (replace_file_durable), streaming the body through a
/// kWriterBufferBytes buffer instead of holding the image in memory; the
/// header, which covers the body's length and running CRC, is written
/// last. Returns the file size in bytes.
Result<std::uint64_t> write_snapshot_file(const std::string& path,
                                          const exec::ExecContext& ctx,
                                          std::uint64_t wal_seq);

/// Validates and decodes a snapshot image into `ctx`, which must be fresh
/// (empty catalog, empty string pool), and builds its graph on
/// `ctx.intra_pool` when there is one. A declaration that does not
/// analyze against the decoded tables is a kIoError. On error, `ctx` may
/// hold partially restored state and must be discarded — the database
/// layer treats a failed open as fail-stop, so partial state is never
/// served.
Result<SnapshotInfo> decode_snapshot(std::span<const std::uint8_t> bytes,
                                     exec::ExecContext& ctx);

}  // namespace gems::store
