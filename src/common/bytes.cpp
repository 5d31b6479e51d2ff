#include "common/bytes.hpp"

#include <utility>

#include "common/check.hpp"

namespace gems {

StreamWriter::StreamWriter(std::size_t buffer_bytes, Sink sink)
    : capacity_(buffer_bytes),
      buffer_(std::make_unique_for_overwrite<std::uint8_t[]>(buffer_bytes)),
      sink_(std::move(sink)) {
  GEMS_CHECK(buffer_bytes >= sizeof(std::uint64_t));
}

void StreamWriter::bytes(std::span<const std::uint8_t> b) {
  if (used_ + b.size() > capacity_) {
    flush_buffer();
    if (b.size() >= capacity_) {
      write_through(b);
      return;
    }
  }
  if (!b.empty()) std::memcpy(buffer_.get() + used_, b.data(), b.size());
  used_ += b.size();
}

void StreamWriter::flush_buffer() {
  write_through({buffer_.get(), used_});
  used_ = 0;
}

void StreamWriter::write_through(std::span<const std::uint8_t> b) {
  if (!error_.is_ok() || b.empty()) return;
  error_ = sink_(b);
  if (error_.is_ok()) written_ += b.size();
}

Status StreamWriter::finish() {
  flush_buffer();
  return error_;
}

Result<bool> ByteReader::boolean() {
  GEMS_ASSIGN_OR_RETURN(std::uint8_t v, u8());
  return v != 0;
}

Result<std::string_view> ByteReader::str_view() {
  GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> b, prefixed("string"));
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

Result<std::string> ByteReader::str() {
  GEMS_ASSIGN_OR_RETURN(std::string_view s, str_view());
  return std::string(s);
}

Result<std::vector<std::uint8_t>> ByteReader::blob() {
  GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> b, prefixed("blob"));
  return std::vector<std::uint8_t>(b.begin(), b.end());
}

Result<std::span<const std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (n > remaining()) return short_read(n);
  const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::uint32_t> ByteReader::count(const char* what,
                                        std::size_t min_bytes_each) {
  const std::size_t at = pos_;
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, u32());
  if (n > remaining() / min_bytes_each) {
    return error_at(at, std::string(what) + " count " + std::to_string(n) +
                            " exceeds remaining " +
                            std::to_string(remaining()) + " bytes");
  }
  return n;
}

Result<std::span<const std::uint8_t>> ByteReader::prefixed(const char* what) {
  const std::size_t at = pos_;
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, u32());
  if (n > remaining()) {
    return error_at(at, std::string(what) + " length " + std::to_string(n) +
                            " exceeds remaining " +
                            std::to_string(remaining()) + " bytes");
  }
  return bytes(n);
}

Status ByteReader::error_at(std::size_t at, std::string_view detail) const {
  return Status(code_, std::string(context_) + ": " + std::string(detail) +
                           " at byte offset " + std::to_string(at));
}

Status ByteReader::expect_end(const char* what) const {
  if (at_end()) return Status::ok();
  return error(std::to_string(remaining()) + " trailing bytes after " + what);
}

Status ByteReader::short_read(std::size_t need) const {
  return error("need " + std::to_string(need) + " bytes but only " +
               std::to_string(remaining()) + " remain");
}

Status ByteReader::bad_enum(std::size_t at, const char* what,
                            std::uint8_t v) const {
  return error_at(at, std::string("bad ") + what + " " + std::to_string(v));
}

}  // namespace gems
