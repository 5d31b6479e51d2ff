// Per-request server metrics (request counters by verb and outcome, bytes
// in/out, and latency histograms split into queue-wait vs. execute time).
// A snapshot travels over the wire in response to a `stats` request, so a
// remote bench can report *server-side* tail latency rather than inferring
// it from client round-trips.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/histogram.hpp"
#include "common/sync.hpp"
#include "mvcc/metrics.hpp"
#include "net/wire.hpp"
#include "server/access.hpp"
#include "server/cluster_metrics.hpp"

namespace gems::net {

/// The log-scale latency histogram now lives in common/histogram.hpp so
/// the durability layer (src/store) can meter with the same type; this
/// alias keeps the wire layer's established spelling.
using LatencyHistogram = ::gems::LatencyHistogram;

/// Counters for one request verb.
struct VerbMetrics {
  std::uint64_t requests = 0;   // everything that arrived, any outcome
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;     // non-OK statuses other than the two below
  std::uint64_t overloaded = 0; // rejected by admission control
  std::uint64_t expired = 0;    // deadline passed before execution
  std::uint64_t cancelled = 0;
  std::uint64_t bytes_in = 0;   // request frame bytes (header + payload)
  std::uint64_t bytes_out = 0;  // response frame bytes
  LatencyHistogram queue_wait;  // enqueue -> dequeue
  LatencyHistogram execute;     // dequeue -> response written
};

/// Copyable point-in-time view of the registry; also the wire payload of a
/// `stats` response.
struct MetricsSnapshot {
  std::array<VerbMetrics, kNumVerbs> verbs{};

  /// Database writer-lock counters (acquisitions, wait/hold times)
  /// merged in by the server when answering `stats`. First of the three
  /// blocks at the wire payload tail; decoding tolerates its absence.
  server::AccessMetricsSnapshot access{};

  /// Cluster coordinator counters (per-rank BSP traffic), merged in by the
  /// server when a cluster is attached. Rides after the access block at
  /// the payload tail; num_ranks == 0 means "no cluster" and renders as
  /// such.
  server::ClusterMetricsSnapshot cluster{};

  /// gems::mvcc epoch lifecycle counters (publish/pin/retire, delta vs.
  /// rebuild ingest maintenance), merged in by the server. Rides after
  /// the cluster block at the payload tail; empty() renders as absent.
  /// `peak_pinned_readers` is the server's read-concurrency signal.
  mvcc::EpochMetricsSnapshot epoch{};

  const VerbMetrics& verb(Verb v) const {
    return verbs[static_cast<std::size_t>(v)];
  }

  /// Aggregate over all verbs.
  VerbMetrics total() const;

  /// Human-readable table (one line per verb with traffic).
  std::string to_string() const;
};

void encode_snapshot(const MetricsSnapshot& snap,
                     std::vector<std::uint8_t>& out);
Result<MetricsSnapshot> decode_snapshot(std::span<const std::uint8_t> bytes);

/// Thread-safe registry the server records into. One mutex is plenty: a
/// record is a dozen integer adds, far below the cost of the request it
/// describes.
class MetricsRegistry {
 public:
  struct Outcome {
    StatusCode code = StatusCode::kOk;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t queue_wait_us = 0;
    std::uint64_t execute_us = 0;
  };

  void record(Verb verb, const Outcome& outcome);

  MetricsSnapshot snapshot() const;

 private:
  mutable sync::Mutex mutex_;
  MetricsSnapshot state_ GEMS_GUARDED_BY(mutex_);
};

}  // namespace gems::net
