#include "cluster/bsp_wire.hpp"

#include "common/crc32.hpp"
#include "net/wire.hpp"

namespace gems::cluster {

namespace {

ByteReader payload_reader(std::span<const std::uint8_t> bytes) {
  return ByteReader(bytes, StatusCode::kParseError, "malformed BSP payload");
}

}  // namespace

std::string_view bsp_kind_name(BspKind kind) noexcept {
  switch (kind) {
    case BspKind::kHello: return "hello";
    case BspKind::kWelcome: return "welcome";
    case BspKind::kSync: return "sync";
    case BspKind::kSyncAck: return "sync_ack";
    case BspKind::kJob: return "job";
    case BspKind::kJobDone: return "job_done";
    case BspKind::kData: return "data";
    case BspKind::kBarrier: return "barrier";
    case BspKind::kBarrierRelease: return "barrier_release";
    case BspKind::kError: return "error";
    case BspKind::kShutdown: return "shutdown";
  }
  return "?";
}

std::vector<std::uint8_t> encode_bsp_frame(const BspFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kBspHeaderBytes + frame.payload.size());
  ByteWriter w(out);
  w.u32(kBspMagic);
  w.u16(kBspVersion);
  w.u8(static_cast<std::uint8_t>(frame.kind));
  w.u8(0);  // flags
  w.u32(frame.from);
  w.u32(frame.dest);
  w.u32(static_cast<std::uint32_t>(frame.tag));
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u32(crc32(frame.payload));
  w.bytes(frame.payload);
  return out;
}

Status send_bsp_frame(const net::Socket& socket, const BspFrame& frame) {
  return net::send_all(socket, encode_bsp_frame(frame));
}

Result<BspFrame> recv_bsp_frame(const net::Socket& socket,
                                std::size_t max_frame_bytes) {
  std::uint8_t header[kBspHeaderBytes];
  GEMS_RETURN_IF_ERROR(net::recv_all(socket, header));
  ByteReader r(header, StatusCode::kParseError, "malformed BSP frame");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kBspMagic) {
    return r.error_at(0, "bad magic (not a GEMS cluster peer?)");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint16_t version, r.u16());
  if (version != kBspVersion) {
    return r.error_at(4, "unsupported BSP wire version " +
                             std::to_string(version) + " (this peer speaks " +
                             std::to_string(kBspVersion) + ")");
  }
  BspFrame frame;
  GEMS_ASSIGN_OR_RETURN(
      frame.kind, r.enum8(static_cast<BspKind>(kNumBspKinds - 1), "kind"));
  GEMS_ASSIGN_OR_RETURN(std::uint8_t flags, r.u8());
  (void)flags;
  GEMS_ASSIGN_OR_RETURN(frame.from, r.u32());
  GEMS_ASSIGN_OR_RETURN(frame.dest, r.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t tag, r.u32());
  frame.tag = static_cast<std::int32_t>(tag);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t payload_len, r.u32());
  // The frame budget is the admission line for memory: a hostile length
  // is rejected here, before any allocation.
  if (payload_len > max_frame_bytes) {
    return r.error_at(20, "payload length " + std::to_string(payload_len) +
                              " exceeds the frame budget of " +
                              std::to_string(max_frame_bytes) + " bytes");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint32_t expected_crc, r.u32());
  frame.payload.resize(payload_len);
  GEMS_RETURN_IF_ERROR(net::recv_all(socket, frame.payload));
  const std::uint32_t actual_crc = crc32(frame.payload);
  if (actual_crc != expected_crc) {
    return r.error_at(kBspHeaderBytes,
                      "payload CRC mismatch on a " +
                          std::string(bsp_kind_name(frame.kind)) + " frame");
  }
  return frame;
}

// ---- Control payloads ------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloPayload& p) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(p.rank);
  w.u32(p.state_crc);
  w.str(p.worker_name);
  return out;
}

Result<HelloPayload> decode_hello(std::span<const std::uint8_t> bytes) {
  ByteReader r = payload_reader(bytes);
  HelloPayload out;
  GEMS_ASSIGN_OR_RETURN(out.rank, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.state_crc, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.worker_name, r.str());
  return out;
}

std::vector<std::uint8_t> encode_welcome(const WelcomePayload& p) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(p.num_ranks);
  w.boolean(p.sync_needed);
  return out;
}

Result<WelcomePayload> decode_welcome(std::span<const std::uint8_t> bytes) {
  ByteReader r = payload_reader(bytes);
  WelcomePayload out;
  GEMS_ASSIGN_OR_RETURN(out.num_ranks, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.sync_needed, r.boolean());
  return out;
}

std::vector<std::uint8_t> encode_job(const JobPayload& p) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u64(p.job_id);
  w.u32(p.num_ranks);
  w.u32(p.network_index);
  w.boolean(p.record_transcript);
  w.blob(p.ir);
  w.blob(p.params);
  return out;
}

Result<JobPayload> decode_job(std::span<const std::uint8_t> bytes) {
  ByteReader r = payload_reader(bytes);
  JobPayload out;
  GEMS_ASSIGN_OR_RETURN(out.job_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.num_ranks, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.network_index, r.u32());
  GEMS_ASSIGN_OR_RETURN(out.record_transcript, r.boolean());
  GEMS_ASSIGN_OR_RETURN(out.ir, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.params, r.blob());
  return out;
}

std::vector<std::uint8_t> encode_job_done(const JobDonePayload& p) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u64(p.job_id);
  w.u64(p.messages);
  w.u64(p.payload_bytes);
  w.u64(p.wire_bytes);
  w.u64(p.activations);
  w.u64(p.supersteps);
  w.u64(p.stall_us);
  w.blob(p.transcript);
  w.blob(p.domains);
  return out;
}

Result<JobDonePayload> decode_job_done(std::span<const std::uint8_t> bytes) {
  ByteReader r = payload_reader(bytes);
  JobDonePayload out;
  GEMS_ASSIGN_OR_RETURN(out.job_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.messages, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.payload_bytes, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.wire_bytes, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.activations, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.supersteps, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.stall_us, r.u64());
  GEMS_ASSIGN_OR_RETURN(out.transcript, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.domains, r.blob());
  return out;
}

std::vector<std::uint8_t> encode_error(const Status& status) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  net::encode_status(status, w);
  return out;
}

Status decode_error(std::span<const std::uint8_t> bytes) {
  ByteReader r = payload_reader(bytes);
  const Status status = net::decode_status(r);
  if (status.is_ok()) {
    return r.error_at(0, "error frame carried an OK status");
  }
  return status;
}

}  // namespace gems::cluster
