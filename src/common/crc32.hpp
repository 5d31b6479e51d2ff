// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// checksum of every GEMS byte image that leaves memory: snapshot header
// and body, WAL record frames, GBSP frame payloads and the cluster's state
// images. A torn or bit-flipped write is detected by the checksum before
// any length field is trusted.
//
// One portable slice-by-16 kernel computes it for every input; it gives
// the same values as the byte-at-a-time table loop, so every CRC on disk
// and on the wire is unchanged (DESIGN.md §5d).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gems {

/// One-shot CRC-32 of `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Incremental form: feed `crc32_update` a running value seeded with
/// `kCrc32Init`, then finalize with `crc32_final`. Equivalent to the
/// one-shot form over the concatenated inputs.
inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> bytes) noexcept;

inline std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xffffffffu;
}

}  // namespace gems
