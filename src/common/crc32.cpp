#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace gems {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slice-by-16 kernel reads each block as host-order words");

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// Slice-by-16 tables, built at compile time. tables[0] is the classic
// byte-at-a-time table: the CRC of one byte i. tables[k][i] is the CRC
// contribution of byte i followed by k zero bytes, so the sixteen bytes
// of a block are looked up independently and XORed together.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// The four bytes of `w`, low first, looked up in tables[hi], hi-1, hi-2,
// hi-3: byte j of a block sits 15 - j bytes before the block's end.
inline std::uint32_t lookup4(std::uint32_t w, std::size_t hi) noexcept {
  return kTables[hi][w & 0xffu] ^ kTables[hi - 1][(w >> 8) & 0xffu] ^
         kTables[hi - 2][(w >> 16) & 0xffu] ^ kTables[hi - 3][w >> 24];
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof(w));
    state = lookup4(w[0] ^ state, 15) ^ lookup4(w[1], 11) ^
            lookup4(w[2], 7) ^ lookup4(w[3], 3);
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  return crc32_final(crc32_update(kCrc32Init, bytes));
}

}  // namespace gems
