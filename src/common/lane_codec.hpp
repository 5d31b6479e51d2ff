// The narrow-lane codec that sealed chunks share (DESIGN.md §5n "Column
// chunks", §5m "String pool").
//
// A chunk of kChunkRows values is sealed once, when it is full: it keeps a
// base and one lane of `width` bytes per value holding value − base, where
// width is the fewest of 0, 1, 2, 4 and 8 bytes that holds the chunk's
// span. Width 0 stores no lanes: every value equals the base. A column
// chunk (storage/column_data.hpp) and a chunk of the string pool's arena
// offsets (common/string_pool.hpp) both encode and decode through these
// functions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gems {

/// Rows per chunk. relational::kBatchRows is the same constant.
inline constexpr std::size_t kChunkRows = 1024;

namespace lane_codec {

/// Bytes a sealed chunk's header (its base and width) counts in its
/// owner's resident bytes, whether the header is stored or implied.
inline constexpr std::size_t kHeaderBytes = 16;

/// Lane bytes that hold every value − base for a span of `span`.
constexpr std::size_t span_width(std::uint64_t span) noexcept {
  if (span == 0) return 0;
  if (span <= 0xff) return 1;
  if (span <= 0xffff) return 2;
  if (span <= 0xffffffffu) return 4;
  return 8;
}

/// Lane j of U-sized lanes.
template <typename U>
U load(const unsigned char* lanes, std::size_t j) noexcept {
  U u;
  std::memcpy(&u, lanes + j * sizeof(U), sizeof(U));
  return u;
}

/// value − base of lane j of a `width`-byte chunk (0 for width 0).
inline std::uint64_t read(const unsigned char* lanes, std::size_t width,
                          std::size_t j) noexcept {
  switch (width) {
    case 1:
      return lanes[j];
    case 2:
      return load<std::uint16_t>(lanes, j);
    case 4:
      return load<std::uint32_t>(lanes, j);
    case 8:
      return load<std::uint64_t>(lanes, j);
    default:
      return 0;
  }
}

namespace detail {

/// out[i] = base + lane j + i for i < k, lanes of U.
template <typename U, typename T>
void widen_as(const unsigned char* lanes, std::uint64_t base, std::size_t j,
              std::size_t k, T* out) noexcept {
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = static_cast<T>(base + load<U>(lanes, j + i));
  }
}

/// Lane i = value i − base, truncated to U.
template <typename U, typename T>
void narrow_as(const T* values, std::size_t n, std::uint64_t base,
               unsigned char* lanes) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const U u = static_cast<U>(static_cast<std::uint64_t>(values[i]) - base);
    std::memcpy(lanes + i * sizeof(U), &u, sizeof(U));
  }
}

}  // namespace detail

/// out[i] = base + lane j + i for i < k, of a `width`-byte chunk.
template <typename T>
void widen(const unsigned char* lanes, std::size_t width, std::uint64_t base,
           std::size_t j, std::size_t k, T* out) noexcept {
  switch (width) {
    case 0:
      std::fill_n(out, k, static_cast<T>(base));
      break;
    case 1:
      detail::widen_as<std::uint8_t>(lanes, base, j, k, out);
      break;
    case 2:
      detail::widen_as<std::uint16_t>(lanes, base, j, k, out);
      break;
    case 4:
      detail::widen_as<std::uint32_t>(lanes, base, j, k, out);
      break;
    default:
      detail::widen_as<std::uint64_t>(lanes, base, j, k, out);
      break;
  }
}

/// Lane i = value i − base for i < n, in `width`-byte lanes (none for
/// width 0).
template <typename T>
void narrow(const T* values, std::size_t n, std::uint64_t base,
            std::size_t width, unsigned char* lanes) noexcept {
  switch (width) {
    case 0:
      break;
    case 1:
      detail::narrow_as<std::uint8_t>(values, n, base, lanes);
      break;
    case 2:
      detail::narrow_as<std::uint16_t>(values, n, base, lanes);
      break;
    case 4:
      detail::narrow_as<std::uint32_t>(values, n, base, lanes);
      break;
    default:
      detail::narrow_as<std::uint64_t>(values, n, base, lanes);
      break;
  }
}

}  // namespace lane_codec
}  // namespace gems
