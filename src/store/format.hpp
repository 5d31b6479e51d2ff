// Byte-level codec and durable file primitives for gems::store.
//
// The snapshot and WAL formats share one discipline, inherited from the
// wire layer (src/net): every variable-length field is length-prefixed,
// every length is validated against the remaining input *before* any
// allocation, and every file section is covered by a CRC32 so corruption
// is detected as a typed Status instead of undefined behavior. The store
// cannot reuse net::WireReader directly (net sits above server in the
// layering, store below it), so this header provides the store's own
// Writer/Reader pair plus the POSIX helpers for crash-safe file
// replacement (write-to-temp, fsync, rename, fsync-directory).
//
// All integers are little-endian on disk. Bulk arrays (column data, CSR
// offsets) are memcpy'd, which is only correct on little-endian hosts;
// store.cpp static_asserts the host endianness.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/chunked_array.hpp"
#include "common/crc32.hpp"
#include "common/status.hpp"

namespace gems::store {

/// Hard cap on any single length prefix (strings, blobs, arrays). A
/// snapshot section claiming more than this is corrupt by definition —
/// the cap bounds allocation caused by a hostile or bit-flipped length
/// before the CRC check would catch it.
inline constexpr std::uint64_t kMaxFieldBytes = 1ull << 40;  // 1 TiB

/// Buffer of a streaming Writer: small fields gather here and reach the
/// file in one write; a span at least this long bypasses the buffer. A
/// larger buffer saves few syscalls and costs resident memory.
inline constexpr std::size_t kWriterBufferBytes = 64 * 1024;

// ---- Writer ---------------------------------------------------------------

/// Appends little-endian fields to a byte vector, or streams them to an
/// open file through a kWriterBufferBytes buffer. The streaming form keeps
/// a running CRC-32 and byte count of what it writes, so a checksummed file
/// section never has to be in memory whole. Its write errors are sticky:
/// later fields are dropped and finish() returns the first error.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}
  /// Streams to `fd`, which stays owned by the caller; `path` names the
  /// file in error messages.
  Writer(int fd, std::string path);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) {
    make_room(1);
    out_->push_back(v);
  }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// u32 length prefix + raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  void bytes(std::span<const std::uint8_t> b) {
    if (streaming() && out_->size() + b.size() > kWriterBufferBytes) {
      flush_buffer();
      if (b.size() >= kWriterBufferBytes) {
        write_through(b);
        return;
      }
    }
    out_->insert(out_->end(), b.begin(), b.end());
  }

  /// u64 element count + raw little-endian array contents.
  template <typename T>
  void pod_array(std::span<const T> a) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(a.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(a.data());
    bytes({p, a.size() * sizeof(T)});
  }

  /// The same bytes as pod_array over the concatenated elements, written
  /// chunk by chunk.
  template <typename T, std::size_t N, bool V>
  void pod_array(const ChunkedArray<T, N, V>& a) {
    u64(a.size());
    for (std::size_t c = 0; c < a.num_chunks(); ++c) {
      const std::span<const T> chunk = a.chunk(c);
      bytes({reinterpret_cast<const std::uint8_t*>(chunk.data()),
             chunk.size() * sizeof(T)});
    }
  }

  /// Streaming form: writes out the buffer and returns the first write
  /// error, if any. Call it before reading written() and crc().
  Status finish();
  /// Streaming form: bytes written to the file so far, and their CRC-32.
  std::uint64_t written() const { return written_; }
  std::uint32_t crc() const { return crc32_final(crc_); }

 private:
  bool streaming() const { return fd_ >= 0; }
  void make_room(std::size_t n) {
    if (streaming() && out_->size() + n > kWriterBufferBytes) flush_buffer();
  }
  void flush_buffer();
  void write_through(std::span<const std::uint8_t> b);

  template <typename T>
  void le(T v) {
    make_room(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>* out_;  // the caller's vector, or buffer_
  std::vector<std::uint8_t> buffer_;
  int fd_ = -1;
  std::string path_;
  std::uint64_t written_ = 0;
  std::uint32_t crc_ = kCrc32Init;
  Status error_;
};

// ---- Reader ---------------------------------------------------------------

/// Positional decoder over a byte span. Every read validates the remaining
/// length first; errors carry the byte offset of the bad field so corrupt
/// snapshots are diagnosable.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  Result<std::uint8_t> u8() {
    GEMS_RETURN_IF_ERROR(need(1, "u8"));
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() { return le<std::uint16_t>("u16"); }
  Result<std::uint32_t> u32() { return le<std::uint32_t>("u32"); }
  Result<std::uint64_t> u64() { return le<std::uint64_t>("u64"); }
  Result<double> f64() {
    GEMS_ASSIGN_OR_RETURN(std::uint64_t bits, le<std::uint64_t>("f64"));
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> str() {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint32_t len, le<std::uint32_t>("string"));
    GEMS_RETURN_IF_ERROR(need(len, "string body", at));
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  Result<std::span<const std::uint8_t>> bytes(std::size_t len,
                                              const char* what) {
    GEMS_RETURN_IF_ERROR(need(len, what));
    auto out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Reads a u64-count-prefixed POD array written by Writer::pod_array.
  /// The count is validated against the remaining bytes before the vector
  /// is allocated, so a corrupt count cannot trigger a huge allocation.
  template <typename T>
  Result<std::vector<T>> pod_array(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint64_t count, le<std::uint64_t>(what));
    if (count > kMaxFieldBytes / sizeof(T) ||
        count * sizeof(T) > remaining()) {
      return corrupt(std::string(what) + ": count " + std::to_string(count) +
                         " exceeds remaining input",
                     at);
    }
    std::vector<T> out(static_cast<std::size_t>(count));
    std::memcpy(out.data(), data_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return out;
  }

  Status corrupt(std::string detail, std::size_t at) const {
    return io_error("corrupt store data at byte " + std::to_string(at) +
                    ": " + std::move(detail));
  }

 private:
  Status need(std::size_t n, const char* what) const {
    return need(n, what, pos_);
  }
  Status need(std::size_t n, const char* what, std::size_t at) const {
    if (n > data_.size() - pos_) {
      return corrupt(std::string(what) + " needs " + std::to_string(n) +
                         " bytes, " + std::to_string(data_.size() - pos_) +
                         " remain",
                     at);
    }
    return Status::ok();
  }

  template <typename T>
  Result<T> le(const char* what) {
    GEMS_RETURN_IF_ERROR(need(sizeof(T), what));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---- Durable file helpers -------------------------------------------------

/// Reads an entire file. kNotFound when it does not exist, kIoError on any
/// other failure.
Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path);

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
