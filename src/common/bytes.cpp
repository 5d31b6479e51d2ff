#include "common/bytes.hpp"

namespace gems {

Result<bool> ByteReader::boolean() {
  GEMS_ASSIGN_OR_RETURN(std::uint8_t v, u8());
  return v != 0;
}

Result<std::string> ByteReader::str() {
  GEMS_ASSIGN_OR_RETURN(std::span<const std::uint8_t> b, prefixed("string"));
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
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
