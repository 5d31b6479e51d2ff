// The wire side of the metrics registry: per-verb request metrics the
// server records (`net.<verb>.*`: counters by outcome, bytes in/out, and
// queue-wait vs. execute latency histograms), and the encoding a metrics
// snapshot travels in as the body of a `stats` response, so a remote
// client sees the same records — including server-side tail latency — as
// an in-process caller.
//
// Stats body (little-endian, self-describing; a new metric needs no wire
// change):
//   u32 record count
//   per record, names strictly increasing:
//     u32 name length, name bytes
//     u8  kind (metrics::Kind)
//     counter/gauge: u64 value
//     histogram:     u64 count, u64 sum_us, u64 max_us,
//                    u32 bucket count (== LatencyHistogram::kBuckets),
//                    u64 per bucket
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "net/wire.hpp"

namespace gems::net {

void encode_snapshot(const metrics::Snapshot& snapshot,
                     std::vector<std::uint8_t>& out);

/// Rejects anything the encoder would not produce: a truncated or
/// over-long body, an unknown kind, a bucket count other than ours, names
/// out of order. Every accepted body re-encodes to the same bytes.
Result<metrics::Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes);

/// The server's per-verb request metrics, registered for every verb at
/// construction.
class RequestMetrics {
 public:
  struct Outcome {
    StatusCode code = StatusCode::kOk;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t queue_wait_us = 0;
    std::uint64_t execute_us = 0;
  };

  explicit RequestMetrics(metrics::Registry& registry);

  void record(Verb verb, const Outcome& outcome);

 private:
  struct PerVerb {
    metrics::Counter& requests;    // everything that arrived, any outcome
    metrics::Counter& ok;
    metrics::Counter& errors;      // non-OK statuses other than the below
    metrics::Counter& overloaded;  // rejected by admission control
    metrics::Counter& expired;     // deadline passed before execution
    metrics::Counter& cancelled;
    metrics::Counter& bytes_in;    // request frame bytes (header + payload)
    metrics::Counter& bytes_out;   // response frame bytes
    metrics::Histogram& queue_wait_us;  // enqueue -> dequeue
    metrics::Histogram& execute_us;     // dequeue -> response written
  };
  std::vector<PerVerb> verbs_;
};

}  // namespace gems::net
