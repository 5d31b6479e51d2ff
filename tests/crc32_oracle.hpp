// Byte-at-a-time CRC-32 (reflected polynomial 0xEDB88320): the oracle the
// Crc32Test sweep in common_test.cpp compares the slice-by-16 kernel of
// src/common/crc32.cpp against. It is the plainest table CRC — one
// 256-entry table, one lookup per byte — so it shares no block loads,
// tail handling or multi-table arithmetic with the kernel.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace gems::crc32_oracle {

inline const std::array<std::uint32_t, 256>& table() {
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      out[i] = c;
    }
    return out;
  }();
  return t;
}

/// One-shot CRC-32 of `bytes`.
inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& t = table();
  std::uint32_t state = 0xffffffffu;
  for (const std::uint8_t b : bytes) {
    state = t[(state ^ b) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

}  // namespace gems::crc32_oracle
