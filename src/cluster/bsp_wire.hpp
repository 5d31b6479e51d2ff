// The cluster BSP wire: length-prefixed, CRC-framed messages carrying the
// distributed matcher's superstep traffic (dist::Message) and the
// coordinator/rank control plane across real TCP connections.
//
// Frame layout (little-endian):
//   u32 magic        "GBSP" (0x47425350)
//   u16 version      BSP wire version (1)
//   u8  kind         BspKind
//   u8  flags        reserved (0)
//   u32 from         sender rank (kCoordinatorRank for the coordinator)
//   u32 dest         destination rank (routing hint for kData)
//   u32 tag          dist::Message tag (two's-complement for collectives)
//   u32 payload_len  payload byte length (bounded by the frame budget)
//   u32 payload_crc  CRC-32 of the payload bytes
//   payload bytes
//
// Decode discipline matches gems::net: magic, version, kind and the
// length prefix are validated against the frame budget *before* the
// payload buffer is allocated (with the byte offset of the offending
// field in the error), and the CRC is checked before any payload byte is
// interpreted — a bit-flip on the wire is a typed kParseError, never a
// corrupted superstep.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "net/socket.hpp"

namespace gems::cluster {

inline constexpr std::uint32_t kBspMagic = 0x47425350;  // "GBSP"
inline constexpr std::uint16_t kBspVersion = 1;
inline constexpr std::size_t kBspHeaderBytes = 28;
/// Default frame budget. Larger than net's: a kSync frame carries a full
/// state snapshot.
inline constexpr std::size_t kDefaultMaxBspFrameBytes = 256u << 20;
/// `from`/`dest` value naming the coordinator instead of a rank.
inline constexpr std::uint32_t kCoordinatorRank = 0xFFFFFFFFu;

enum class BspKind : std::uint8_t {
  kHello = 0,        // rank -> coord: rank id + recovered-state CRC
  kWelcome,          // coord -> rank: cluster size + sync decision
  kSync,             // coord -> rank: full state snapshot image
  kSyncAck,          // rank -> coord: snapshot applied (echoes CRC)
  kJob,              // coord -> rank: run one distributed match
  kJobDone,          // rank -> coord: per-rank stats (+ domains on rank 0)
  kData,             // rank -> rank via coord: one BSP superstep message
  kBarrier,          // rank -> coord: arrived at a barrier
  kBarrierRelease,   // coord -> rank: all ranks arrived
  kError,            // rank -> coord: job failed (payload: encoded Status)
  kShutdown,         // coord -> rank: exit cleanly
};
inline constexpr std::size_t kNumBspKinds = 11;

std::string_view bsp_kind_name(BspKind kind) noexcept;

struct BspFrame {
  BspKind kind = BspKind::kData;
  std::uint32_t from = kCoordinatorRank;
  std::uint32_t dest = kCoordinatorRank;
  std::int32_t tag = 0;
  std::vector<std::uint8_t> payload;

  std::size_t wire_size() const { return kBspHeaderBytes + payload.size(); }
};

/// Serializes the frame (header + payload) to one contiguous buffer —
/// exposed so tests can craft hostile frames from a well-formed image.
std::vector<std::uint8_t> encode_bsp_frame(const BspFrame& frame);

/// Sends one frame as a single buffered write.
Status send_bsp_frame(const net::Socket& socket, const BspFrame& frame);

/// Reads one frame. Validates magic, version, kind, and the payload
/// length against `max_frame_bytes` before allocating; verifies the
/// payload CRC before returning. kUnavailable on clean EOF between
/// frames, kParseError on garbage.
Result<BspFrame> recv_bsp_frame(const net::Socket& socket,
                                std::size_t max_frame_bytes);

// ---- Control payloads ------------------------------------------------------
// Written with ByteWriter and read with ByteReader (common/bytes.hpp).

struct HelloPayload {
  std::uint32_t rank = 0;
  /// CRC-32 of the snapshot image the rank recovered from its store dir
  /// (0 = no local state). The coordinator skips the state sync when this
  /// matches its own image — the restart fast path.
  std::uint32_t state_crc = 0;
  std::string worker_name;
};

struct WelcomePayload {
  std::uint32_t num_ranks = 0;
  bool sync_needed = false;
};

struct JobPayload {
  std::uint64_t job_id = 0;
  std::uint32_t num_ranks = 0;
  /// Index into the lowered query's or-group networks: rank replicas
  /// lower the same statement deterministically and pick the same net.
  std::uint32_t network_index = 0;
  bool record_transcript = false;
  std::vector<std::uint8_t> ir;      // single-statement graql IR
  std::vector<std::uint8_t> params;  // graql::encode_params blob
};

struct JobDonePayload {
  std::uint64_t job_id = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t activations = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t stall_us = 0;
  /// Recorded send stream (byte-identity oracle), empty unless requested.
  std::vector<std::uint8_t> transcript;
  /// Rank 0 only: dist::encode_domains of the merged domains.
  std::vector<std::uint8_t> domains;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& p);
Result<HelloPayload> decode_hello(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_welcome(const WelcomePayload& p);
Result<WelcomePayload> decode_welcome(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_job(const JobPayload& p);
Result<JobPayload> decode_job(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_job_done(const JobDonePayload& p);
Result<JobDonePayload> decode_job_done(std::span<const std::uint8_t> bytes);

/// kError payload: a structured Status (reuses the net response codec).
/// decode_error always returns a failure — the reported status, or a
/// parse_error when the payload itself is malformed (including the
/// protocol violation of an OK status in an error frame).
std::vector<std::uint8_t> encode_error(const Status& status);
Status decode_error(std::span<const std::uint8_t> bytes);

}  // namespace gems::cluster
