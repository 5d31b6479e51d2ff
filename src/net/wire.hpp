// The GEMS wire protocol: length-prefixed, versioned binary frames
// carrying the front-end/backend hand-off of the paper (Sec. III) across
// a real TCP connection. A request's run-script payload is exactly the
// binary IR produced by `graql::encode_script` plus encoded parameter
// bindings; responses carry `exec::StatementResult` tables / subgraph
// summaries and a structured `Status`.
//
// Frame layout (little-endian, matching the IR):
//   u32 magic      "GNET" (0x474E4554)
//   u16 version    wire protocol version (kWireVersion)
//   u8  verb       request verb (also echoed on the response)
//   u8  flags      bit 0: response
//   u64 request_id client-assigned, echoed on the response
//   u32 payload    payload byte length (bounded by the frame budget)
//   payload bytes
//
// Every decoder here rejects hostile lengths — a length prefix larger
// than the remaining buffer or the configured frame budget — *before*
// allocating, and reports the byte offset of the offending field.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "exec/executor.hpp"
#include "net/socket.hpp"
#include "server/database.hpp"

namespace gems::net {

inline constexpr std::uint32_t kFrameMagic = 0x474E4554;  // "GNET"
/// Bumped whenever a payload layout changes in a way an older peer would
/// misread; the handshake and every frame header reject a mismatch. The
/// stats body is self-describing records (net/metrics.hpp), so a new
/// metric needs no bump.
inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Default frame budget: the largest payload either side will accept.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;
/// The largest payload the u32 length field can carry.
inline constexpr std::uint64_t kMaxPayloadBytes = 0xffffffffu;
/// Buffer a reply streams through on its way to the socket (at most the
/// whole frame). A reply of any size holds no more than this in memory
/// beyond its result tables.
inline constexpr std::size_t kReplyBufferBytes = 64 * 1024;

/// Request verbs (paper Sec. III: clients submit scripts; the server
/// checks, compiles, executes — plus the operational verbs a real service
/// needs).
enum class Verb : std::uint8_t {
  kHandshake = 0,  // version negotiation, opens a session
  kRunScript,      // execute IR + params, return results
  kCheck,          // static analysis only
  kExplain,        // plan rendering only
  kCatalog,        // list catalog objects with sizes
  kStats,          // metrics registry snapshot
  kCancel,         // best-effort cancel of a queued request
  kShutdown,       // stop the server (admin)
};
inline constexpr std::size_t kNumVerbs = 8;

std::string_view verb_name(Verb verb) noexcept;

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  Verb verb = Verb::kHandshake;
  bool is_response = false;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
};

// ---- Payload fields ---------------------------------------------------------
// Frames and payloads are written with the shared ByteWriter and read with
// ByteReader (common/bytes.hpp). Values and rows reuse the IR's tagged
// encoding (graql::encode_value, encode_rows), so a literal looks the same
// in a script IR, a result table and a WAL ingest record.

/// A ByteReader over a frame header or payload: errors are kParseError
/// "malformed frame: ... at byte offset N".
inline ByteReader frame_reader(std::span<const std::uint8_t> bytes) {
  return ByteReader(bytes, StatusCode::kParseError, "malformed frame");
}

// ---- Frame I/O -------------------------------------------------------------

/// The 20-byte frame header. `W` is a ByteWriter, ByteCounter or
/// StreamWriter (common/bytes.hpp).
template <typename W>
void write_frame_header(W& w, Verb verb, bool is_response,
                        std::uint64_t request_id, std::uint32_t payload_size) {
  w.u32(kFrameMagic);
  w.u16(kWireVersion);
  w.u8(static_cast<std::uint8_t>(verb));
  w.u8(is_response ? 1 : 0);
  w.u64(request_id);
  w.u32(payload_size);
}

/// Sends one frame (header + payload) as a single buffered write. A
/// payload the u32 length field cannot carry is kInvalidArgument, and
/// nothing is sent.
Status send_frame(const Socket& socket, Verb verb, bool is_response,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;

  std::size_t wire_size() const {
    return kFrameHeaderBytes + payload.size();
  }
};

/// Reads one frame. Validates magic, version, verb, and the payload
/// length against `max_frame_bytes` before allocating the payload buffer.
/// kUnavailable on clean EOF, kParseError on garbage.
Result<Frame> recv_frame(const Socket& socket, std::size_t max_frame_bytes);

// ---- Request payloads ------------------------------------------------------

struct HandshakeRequest {
  std::uint16_t wire_version = kWireVersion;
  std::string client_name;
};

struct HandshakeResponse {
  std::uint16_t wire_version = kWireVersion;
  std::uint64_t session_id = 0;
  std::string server_name;
};

/// Payload of kRunScript / kCheck / kExplain: the script IR, the encoded
/// parameter bindings, and a server-enforced deadline (0 = none).
struct ScriptRequest {
  std::vector<std::uint8_t> ir;
  std::vector<std::uint8_t> params;  // graql::encode_params blob
  std::uint32_t deadline_ms = 0;
};

struct CancelRequest {
  std::uint64_t target_request_id = 0;
};

std::vector<std::uint8_t> encode_handshake_request(const HandshakeRequest& r);
Result<HandshakeRequest> decode_handshake_request(
    std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> encode_handshake_response(
    const HandshakeResponse& r);
Result<HandshakeResponse> decode_handshake_response(ByteReader& reader);

std::vector<std::uint8_t> encode_script_request(const ScriptRequest& r);
Result<ScriptRequest> decode_script_request(
    std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_cancel_request(const CancelRequest& r);
Result<CancelRequest> decode_cancel_request(
    std::span<const std::uint8_t> bytes);

// ---- Response payloads -----------------------------------------------------
// Every response payload starts with an encoded Status; a verb-specific
// body follows only when the status is OK.

template <typename W>
void encode_status(const Status& status, W& w) {
  w.u16(static_cast<std::uint16_t>(status.code()));
  w.str(status.message());
}
/// Returns the decoded status; a malformed status field itself decodes to
/// kParseError. OK means "the peer reported success; the body follows".
Status decode_status(ByteReader& reader);

/// Result tables / subgraph summaries. Tables ship schema + row values;
/// subgraphs ship their instance counts (the full vertex/edge sets stay
/// server-side, as named catalog objects). The rows are graql::encode_rows'
/// cells, written straight from the columns' typed chunks. `W` is a
/// ByteWriter, a ByteCounter (the reply's sizing pass) or a StreamWriter
/// (the reply itself).
template <typename W>
void encode_results(const std::vector<exec::StatementResult>& results,
                    W& w);
extern template void encode_results(
    const std::vector<exec::StatementResult>&, ByteWriter&);
extern template void encode_results(
    const std::vector<exec::StatementResult>&, ByteCounter&);
extern template void encode_results(
    const std::vector<exec::StatementResult>&, StreamWriter&);
/// Decoded tables are rebuilt against `pool` (the client's interner).
Result<std::vector<exec::StatementResult>> decode_results(ByteReader& reader,
                                                          StringPool& pool);

template <typename W>
void encode_catalog(const std::vector<server::CatalogEntry>& entries, W& w) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.str(e.name);
    w.u64(e.instances);
    w.u64(e.byte_size);
  }
}
Result<std::vector<server::CatalogEntry>> decode_catalog(ByteReader& reader);

}  // namespace gems::net
