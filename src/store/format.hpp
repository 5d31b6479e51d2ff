// Field codec and durable file primitives for gems::store.
//
// Snapshot and WAL fields are written with the shared ByteWriter
// (common/bytes.hpp), or streamed to a file by FileWriter below, and read
// with the shared ByteReader through store_reader(), whose errors are
// kIoError. Every variable-length field is length-prefixed, every length
// is checked against the remaining input before any allocation, and every
// file section is covered by a CRC32, so corruption is detected as a
// typed Status instead of undefined behavior. The POSIX helpers at the
// end do crash-safe file replacement (write-to-temp, fsync, rename,
// fsync-directory).
//
// Bulk arrays (column data, the declaration script) are their elements'
// in-memory bytes, which common/bytes.hpp pins to little-endian; a column
// is written as its widened lanes, whatever width its chunks store. Arrays
// read back and whole files come from large_array_resource() or a scratch
// arena (DESIGN.md §5m), so recovery frees no large malloc block.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory_resource>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/large_array.hpp"
#include "common/status.hpp"
#include "storage/column_data.hpp"

namespace gems::store {

/// A ByteReader over snapshot or WAL bytes: errors are kIoError
/// "corrupt store data: ... at byte offset N".
inline ByteReader store_reader(std::span<const std::uint8_t> bytes) {
  return ByteReader(bytes, StatusCode::kIoError, "corrupt store data");
}

/// Buffer of a FileWriter: small fields gather here and reach the file in
/// one write; a span at least this long bypasses the buffer. A larger
/// buffer saves few syscalls and costs resident memory.
inline constexpr std::size_t kWriterBufferBytes = 64 * 1024;

/// A StreamWriter (common/bytes.hpp) into an open file through a
/// kWriterBufferBytes buffer, keeping a running CRC-32 of what it writes,
/// so a checksummed file section never has to be in memory whole. The
/// first write error is sticky and names the file.
class FileWriter : public StreamWriter {
 public:
  /// `fd` stays owned by the caller; `path` names the file in errors.
  FileWriter(int fd, std::string path);

  /// CRC-32 of the bytes written so far; call finish() first.
  std::uint32_t crc() const { return crc32_final(crc_); }

 private:
  Status write_out(std::span<const std::uint8_t> b);

  int fd_;
  std::string path_;
  std::uint32_t crc_ = kCrc32Init;
};

// ---- POD arrays -------------------------------------------------------------
// A u64 element count + the elements' raw bytes: the layout of column
// data, endpoint arrays and bitset words. `W` is a ByteWriter or a
// FileWriter.

/// The elements' raw bytes alone: one piece of an array whose count was
/// written before it.
template <typename T, typename W>
void write_pods(W& w, std::span<const T> a) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.bytes({reinterpret_cast<const std::uint8_t*>(a.data()),
           a.size() * sizeof(T)});
}

template <typename T, typename W>
void write_pod_array(W& w, std::span<const T> a) {
  w.u64(a.size());
  write_pods(w, a);
}

/// The same bytes as the span form over the column's plain lanes, written
/// chunk by chunk; narrow chunks are widened on the way.
template <typename W, typename T>
void write_pod_array(W& w, const storage::ColumnData<T>& a) {
  w.u64(a.size());
  a.for_each_piece(0, a.size(),
                   [&](std::span<const T> piece, std::size_t) {
                     write_pods(w, piece);
                   });
}

/// Reads a write_pod_array section into an array from `memory`. The count
/// is checked against the remaining bytes before the array is allocated.
template <typename T>
Result<std::pmr::vector<T>> read_pod_array(
    ByteReader& r, const char* what,
    std::pmr::memory_resource* memory = large_array_resource()) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint64_t count, r.u64());
  if (count > r.remaining() / sizeof(T)) {
    return r.error_at(at, std::string(what) + " count " +
                              std::to_string(count) + " exceeds remaining " +
                              std::to_string(r.remaining()) + " bytes");
  }
  GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> raw,
                        r.bytes(static_cast<std::size_t>(count) * sizeof(T)));
  std::pmr::vector<T> out(static_cast<std::size_t>(count), memory);
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

// ---- Durable file helpers -------------------------------------------------

/// Reads an entire file into an array on large_array_resource().
/// kNotFound when it does not exist, kIoError on any other failure.
Result<std::pmr::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);

/// Crash-safe file replacement: `fill` writes the new contents through the
/// open descriptor of `path + ".tmp"` (whose name it is also given); the
/// temp file is then fsynced and renamed over `path`, and the containing
/// directory fsynced so the rename itself is durable. A crash at any point
/// leaves either the old complete file or the new complete file, never a
/// torn one. On any error, `fill`'s included, the temp file is removed and
/// `path` is left as it was.
Status replace_file_durable(
    const std::string& path,
    const std::function<Status(int fd, const std::string& tmp_path)>& fill);

/// replace_file_durable with `bytes` as the new contents.
Status write_file_durable(const std::string& path,
                          std::span<const std::uint8_t> bytes);

/// Writes all of `bytes` to `fd` at its file offset (write_all) or at
/// `offset` (pwrite_all), retrying short and interrupted writes.
Status write_all(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& path);
Status pwrite_all(int fd, std::span<const std::uint8_t> bytes,
                  std::uint64_t offset, const std::string& path);

/// fsyncs a directory (required after rename/create for the directory
/// entry to be durable).
Status fsync_dir(const std::string& dir);

/// Creates `dir` (and parents) if missing.
Status ensure_dir(const std::string& dir);

}  // namespace gems::store
