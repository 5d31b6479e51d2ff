// Cluster runtime abstractions for the paper's GEMS backend ("a cluster of
// high-performance servers with ample DRAM connected via a high speed
// network", Sec. III). The BSP algorithms (dist_matcher) are written against
// the abstract `Comm` surface below, so the same rank body runs unchanged
// over two transports:
//
//   * SimCluster — N ranks as threads with typed in-process mailboxes and
//     per-rank byte/message accounting (this file);
//   * cluster::RankChannel — N ranks as real processes exchanging framed
//     messages over TCP through a coordinator (src/cluster/).
//
// Byte-identity across the two transports is the correctness oracle for the
// wire path: for the same graph, query and rank count, each rank's ordered
// application send stream must match bit for bit (see RecordingComm).
//
// Immutable graph structure is shared in memory within one process (the
// standard shortcut of in-process cluster simulation); all *algorithmic*
// state moves through messages.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"

namespace gems::dist {

struct Message {
  int from = -1;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

/// Per-rank communication counters (messages/bytes *sent*).
struct RankCommStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// ---- Payloads ---------------------------------------------------------------
// Rank payloads are written with ByteWriter and read with ByteReader
// (common/bytes.hpp). Over cluster::RankChannel they arrive from another
// process, so every read is checked; a rank that cannot decode a peer's
// payload fail-stops through check_payload.

/// A ByteReader over a rank payload: errors are kParseError
/// "malformed rank payload: ... at byte offset N".
inline ByteReader payload_reader(std::span<const std::uint8_t> bytes) {
  return ByteReader(bytes, StatusCode::kParseError, "malformed rank payload");
}

/// Fail-stops the rank when `status` (the decode of the payload field
/// `what`) is an error.
inline void check_payload(const Status& status, const char* what) {
  GEMS_CHECK_MSG(status.is_ok(),
                 (std::string(what) + ": " + status.to_string()).c_str());
}

// ---- Transport surface ----------------------------------------------------

/// Abstract rank-communication surface. A rank body sees only its own Comm;
/// instances are not shared across ranks. `allreduce_sum` is implemented
/// here, on top of send/recv, so every transport produces the identical
/// collective message stream — a requirement of the byte-identity oracle.
class Comm {
 public:
  virtual ~Comm() = default;

  virtual int rank() const noexcept = 0;
  virtual int size() const noexcept = 0;

  /// Sends `payload` to `to` (copies the bytes). Self-sends are allowed;
  /// they are delivered locally and not counted as network traffic.
  virtual void send(int to, int tag, std::span<const std::uint8_t> payload) = 0;

  /// Blocking receive from this rank's mailbox (any source, any tag; FIFO
  /// per sender).
  virtual Message recv() = 0;

  /// Synchronizes all ranks. Control-plane: how the barrier travels is
  /// transport-specific and not part of the recorded send stream.
  virtual void barrier() = 0;

  /// Sum-allreduce implemented with real messages: every rank sends its
  /// value to rank 0, which reduces and broadcasts the result.
  std::uint64_t allreduce_sum(std::uint64_t value);
};

/// Decorator that captures a rank's ordered application send stream —
/// `(to, tag, length, payload bytes)` per send — which the cluster
/// byte-identity oracle compares across transports.
class RecordingComm : public Comm {
 public:
  explicit RecordingComm(Comm& inner) : inner_(inner) {}

  int rank() const noexcept override { return inner_.rank(); }
  int size() const noexcept override { return inner_.size(); }

  void send(int to, int tag, std::span<const std::uint8_t> payload) override {
    ByteWriter w(transcript_);
    w.u32(static_cast<std::uint32_t>(to));
    w.u32(static_cast<std::uint32_t>(tag));
    w.blob(payload);
    inner_.send(to, tag, payload);
  }

  Message recv() override { return inner_.recv(); }
  void barrier() override { inner_.barrier(); }

  std::vector<std::uint8_t>& transcript() noexcept { return transcript_; }
  const std::vector<std::uint8_t>& transcript() const noexcept {
    return transcript_;
  }

 private:
  Comm& inner_;
  std::vector<std::uint8_t> transcript_;
};

class SimCluster;

/// Per-rank handle passed to the rank body by SimCluster. Not thread-safe
/// across ranks; each rank uses only its own context.
class RankCtx : public Comm {
 public:
  int rank() const noexcept override { return rank_; }
  int size() const noexcept override;

  void send(int to, int tag, std::span<const std::uint8_t> payload) override;
  Message recv() override;
  void barrier() override;

 private:
  friend class SimCluster;
  RankCtx(SimCluster* cluster, int rank) : cluster_(cluster), rank_(rank) {}

  SimCluster* cluster_;
  int rank_;
};

class SimCluster {
 public:
  explicit SimCluster(std::size_t num_ranks);

  std::size_t size() const noexcept { return num_ranks_; }

  /// Runs `body` on every rank (one thread per rank) and joins.
  void run(const std::function<void(RankCtx&)>& body);

  /// Aggregate and per-rank communication stats for the last run().
  const std::vector<RankCommStats>& rank_stats() const noexcept {
    return stats_;
  }
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

 private:
  friend class RankCtx;

  struct Mailbox {
    sync::Mutex mutex;
    sync::CondVar cv;
    std::deque<Message> queue GEMS_GUARDED_BY(mutex);
  };

  void deliver(int from, int to, int tag,
               std::span<const std::uint8_t> payload);
  Message take(int rank);
  void barrier_wait();

  std::size_t num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<RankCommStats> stats_;

  // Reusable two-phase barrier.
  sync::Mutex barrier_mutex_;
  sync::CondVar barrier_cv_;
  std::size_t barrier_count_ GEMS_GUARDED_BY(barrier_mutex_) = 0;
  std::uint64_t barrier_generation_ GEMS_GUARDED_BY(barrier_mutex_) = 0;
};

}  // namespace gems::dist
