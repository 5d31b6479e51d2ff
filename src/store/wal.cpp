#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "store/format.hpp"

namespace gems::store {

namespace {

/// CRC over the covered part of a frame: seq (LE) | type | payload.
std::uint32_t record_crc(std::uint64_t seq, WalRecordType type,
                         std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> head;
  ByteWriter w(head);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(type));
  return crc32_final(crc32_update(crc32_update(kCrc32Init, head), payload));
}

Status errno_status(const char* op, const std::string& path) {
  return io_error(std::string(op) + " '" + path + "': " +
                  std::strerror(errno));
}

std::vector<std::uint8_t> make_header(std::uint64_t snapshot_seq) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kWalMagic);
  w.u16(kWalVersion);
  w.u16(0);  // reserved
  w.u64(snapshot_seq);
  return out;
}

}  // namespace

Result<Wal::OpenResult> Wal::open(std::string path,
                                  std::uint64_t snapshot_seq_if_create,
                                  bool fsync_on_append) {
  OpenResult out;

  auto existing = read_file_bytes(path);
  if (!existing.is_ok() &&
      existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }

  if (!existing.is_ok()) {
    // Fresh log: durable header-only file, then open for appending.
    const std::vector<std::uint8_t> header =
        make_header(snapshot_seq_if_create);
    GEMS_RETURN_IF_ERROR(write_file_durable(path, header));
    out.header_snapshot_seq = snapshot_seq_if_create;
    out.scanned_bytes = header.size();
  } else {
    const std::pmr::vector<std::uint8_t>& bytes = *existing;
    out.scanned_bytes = bytes.size();
    if (bytes.size() < kWalHeaderBytes) {
      return io_error("WAL '" + path + "' truncated inside its header (" +
                      std::to_string(bytes.size()) + " bytes)");
    }
    ByteReader h =
        store_reader(std::span<const std::uint8_t>(bytes).subspan(
            0, kWalHeaderBytes));
    GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, h.u32());
    GEMS_ASSIGN_OR_RETURN(std::uint16_t version, h.u16());
    GEMS_ASSIGN_OR_RETURN(std::uint16_t reserved, h.u16());
    GEMS_ASSIGN_OR_RETURN(out.header_snapshot_seq, h.u64());
    (void)reserved;
    if (magic != kWalMagic) {
      return io_error("'" + path + "' is not a GEMS WAL (bad magic)");
    }
    if (version != kWalVersion) {
      return io_error("unsupported WAL version " + std::to_string(version));
    }

    // Scan records; stop (and truncate) at the first torn/corrupt frame.
    std::size_t valid_end = kWalHeaderBytes;
    std::uint64_t last_seq = out.header_snapshot_seq;
    ByteReader r = store_reader(
        std::span<const std::uint8_t>(bytes).subspan(kWalHeaderBytes));
    while (!r.at_end()) {
      const std::size_t frame_start = kWalHeaderBytes + r.pos();
      if (r.remaining() < kWalFrameBytes) break;  // torn frame header
      std::uint32_t payload_len = r.u32().value();
      std::uint32_t crc = r.u32().value();
      std::uint64_t seq = r.u64().value();
      std::uint8_t type = r.u8().value();
      if (payload_len > r.remaining()) break;  // torn payload
      auto payload = r.bytes(payload_len).value();
      if (record_crc(seq, static_cast<WalRecordType>(type), payload) != crc) {
        break;  // bit-flipped frame
      }
      if (type != static_cast<std::uint8_t>(WalRecordType::kStatement) &&
          type != static_cast<std::uint8_t>(WalRecordType::kIngestRows)) {
        break;  // unknown record type: cannot replay past it
      }
      if (seq <= last_seq) break;  // non-monotone seq: corrupt
      last_seq = seq;
      WalRecord rec;
      rec.seq = seq;
      rec.type = static_cast<WalRecordType>(type);
      rec.payload.assign(payload.begin(), payload.end());
      out.records.push_back(std::move(rec));
      valid_end = frame_start + kWalFrameBytes + payload_len;
    }
    out.truncated_bytes = bytes.size() - valid_end;
    if (out.truncated_bytes > 0) {
      GEMS_LOG(Warning) << "WAL '" << path << "': truncating "
                        << out.truncated_bytes
                        << " torn/corrupt tail bytes after record seq "
                        << last_seq;
      if (::truncate(path.c_str(),
                     static_cast<off_t>(valid_end)) != 0) {
        return errno_status("truncate", path);
      }
    }
  }

  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return errno_status("open for append", path);

  std::uint64_t next_seq = out.header_snapshot_seq + 1;
  if (!out.records.empty()) next_seq = out.records.back().seq + 1;
  out.wal.reset(new Wal(std::move(path), fd, fsync_on_append, next_seq));
  return out;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::uint64_t> Wal::append(WalRecordType type,
                                  std::span<const std::uint8_t> payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    return invalid_argument("WAL record payload too large");
  }
  const std::uint64_t seq = next_seq_;
  std::vector<std::uint8_t> frame;
  frame.reserve(kWalFrameBytes + payload.size());
  ByteWriter w(frame);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(record_crc(seq, type, payload));
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload);

  // A partial append leaves a torn frame; the next open truncates it.
  GEMS_RETURN_IF_ERROR(write_all(fd_, frame, path_));
  if (fsync_on_append_ && ::fsync(fd_) != 0) {
    return errno_status("fsync", path_);
  }
  ++next_seq_;
  return seq;
}

Status Wal::rotate(std::uint64_t snapshot_seq) {
  // Atomic replacement: the old log keeps covering the pre-checkpoint
  // state until the rename lands, and replay skips seqs <= snapshot_seq,
  // so a crash in any window recovers correctly from either file.
  GEMS_RETURN_IF_ERROR(write_file_durable(path_, make_header(snapshot_seq)));
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return errno_status("reopen after rotate", path_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  advance_seq(snapshot_seq);
  return Status::ok();
}

}  // namespace gems::store
