// The byte codec every binary format in GEMS is written with: the GraQL
// IR, net frames and payloads, GBSP frames and control payloads,
// diagnostics, stats bodies, snapshots, WAL records and rank payloads.
//
// All integers are little-endian, and so is the host (asserted below), so
// a field is its in-memory bytes. ByteWriter appends fields to a caller's
// vector; ByteCounter counts the bytes the same fields take, and
// StreamWriter hands them to a sink through a fixed buffer, so an encoder
// templated on its writer can size an encoding and then stream it without
// ever holding it whole. ByteReader reads fields back from a span: every
// read is bounds-checked, and every count or length prefix is checked
// against the remaining bytes before the caller allocates anything for it.
// A failed read returns a Status with the code the caller gave the reader,
// reading "<context>: <detail> at byte offset N".
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace gems {

static_assert(std::endian::native == std::endian::little,
              "GEMS byte formats are little-endian and written in host order");

class ByteWriter {
 public:
  /// Appends to `out`, which must outlive the writer.
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(v); }
  void f64(double v) { fixed(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 length prefix + the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }

  /// Raw bytes, no prefix.
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }

 private:
  template <typename T>
  void fixed(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  std::vector<std::uint8_t>& out_;
};

/// Counts the bytes a ByteWriter given the same fields would append,
/// writing none: the sizing pass of an encoder that must know its length
/// before its first byte leaves (a frame header, a snapshot buffer).
class ByteCounter {
 public:
  void u8(std::uint8_t) { written_ += 1; }
  void u16(std::uint16_t) { written_ += 2; }
  void u32(std::uint32_t) { written_ += 4; }
  void u64(std::uint64_t) { written_ += 8; }
  void i64(std::int64_t) { written_ += 8; }
  void f64(double) { written_ += 8; }
  void boolean(bool) { written_ += 1; }
  void str(std::string_view s) { written_ += 4 + s.size(); }
  void blob(std::span<const std::uint8_t> b) { written_ += 4 + b.size(); }
  void bytes(std::span<const std::uint8_t> b) { written_ += b.size(); }

  std::uint64_t written() const { return written_; }

 private:
  std::uint64_t written_ = 0;
};

/// Streams ByteWriter fields to a sink through a fixed buffer, so an
/// encoding never has to be in memory whole. Small fields gather in the
/// buffer and reach the sink one buffer at a time; a span at least as long
/// as the buffer goes to the sink directly. No field is split across two
/// sink calls. It produces the same bytes as a ByteWriter given the same
/// fields. The first sink error is sticky: later fields are dropped and
/// finish() returns it.
class StreamWriter {
 public:
  using Sink = std::function<Status(std::span<const std::uint8_t>)>;

  /// `buffer_bytes` must hold the widest fixed field (8 bytes).
  StreamWriter(std::size_t buffer_bytes, Sink sink);

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  void u8(std::uint8_t v) { fixed(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { fixed(v); }
  void f64(double v) { fixed(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// ByteWriter::str's layout, with the body routed through bytes().
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }
  void bytes(std::span<const std::uint8_t> b);

  /// Hands the buffered bytes to the sink and returns the first sink
  /// error, if any. Call it before reading written().
  Status finish();
  /// Bytes the sink has accepted so far.
  std::uint64_t written() const { return written_; }

 private:
  template <typename T>
  void fixed(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (used_ + sizeof(T) > capacity_) flush_buffer();
    std::memcpy(buffer_.get() + used_, &v, sizeof(T));
    used_ += sizeof(T);
  }
  void flush_buffer();
  void write_through(std::span<const std::uint8_t> b);

  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> buffer_;
  std::size_t used_ = 0;
  Sink sink_;
  std::uint64_t written_ = 0;
  Status error_;
};

class ByteReader {
 public:
  /// Errors carry `code` and start with `context`, a string literal such
  /// as "malformed IR".
  ByteReader(std::span<const std::uint8_t> bytes, StatusCode code,
             const char* context)
      : bytes_(bytes), code_(code), context_(context) {}

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return short_read(1);
    return bytes_[pos_++];
  }
  Result<std::uint16_t> u16() { return fixed<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return fixed<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return fixed<std::uint64_t>(); }
  Result<std::int64_t> i64() { return fixed<std::int64_t>(); }
  Result<double> f64() { return fixed<double>(); }
  Result<bool> boolean();

  /// A u32 length prefix and that many bytes, viewed in place or copied.
  Result<std::string_view> str_view();
  Result<std::string> str();
  Result<std::vector<std::uint8_t>> blob();

  /// The next `n` raw bytes, as a view into the input.
  Result<std::span<const std::uint8_t>> bytes(std::size_t n);

  /// A u32 element count, rejected unless `count * min_bytes_each` bytes
  /// remain, so callers may size containers from it.
  Result<std::uint32_t> count(const char* what,
                              std::size_t min_bytes_each = 1);

  /// A one-byte enum, rejected when above `max`.
  template <typename Enum>
  Result<Enum> enum8(Enum max, const char* what) {
    const std::size_t at = pos_;
    GEMS_ASSIGN_OR_RETURN(std::uint8_t v, u8());
    if (v > static_cast<std::uint8_t>(max)) return bad_enum(at, what, v);
    return static_cast<Enum>(v);
  }

  /// "<context>: <detail> at byte offset <at>" with the reader's code.
  Status error_at(std::size_t at, std::string_view detail) const;
  Status error(std::string_view detail) const { return error_at(pos_, detail); }
  /// An error unless every byte has been read.
  Status expect_end(const char* what) const;

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  /// A u32 length prefix and a view of that many bytes.
  Result<std::span<const std::uint8_t>> prefixed(const char* what);
  Status short_read(std::size_t need) const;
  Status bad_enum(std::size_t at, const char* what, std::uint8_t v) const;

  template <typename T>
  Result<T> fixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return short_read(sizeof(T));
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  StatusCode code_;
  const char* context_;
};

}  // namespace gems
