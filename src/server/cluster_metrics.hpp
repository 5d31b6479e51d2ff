// Cluster observability snapshot: per-rank BSP communication counters the
// coordinator accumulates from rank kJobDone reports (src/cluster), plus
// coordinator-side job/sync totals. Lives in server/ (not cluster/) so the
// net layer can ship it through the stats verb without depending on the
// cluster subsystem — net already links server.
//
// Wire layout: the snapshot travels at the *tail* of the kStats response
// payload, after the writer-lock counters and before the epoch block. The
// decoder tolerates its absence; a layout change here shifts the epoch
// block and needs a kWireVersion bump (net/wire.hpp).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace gems::server {

struct ClusterRankMetrics {
  bool connected = false;
  std::uint64_t jobs = 0;           // distributed matches this rank ran
  std::uint64_t messages = 0;       // BSP messages sent (excl. self-sends)
  std::uint64_t payload_bytes = 0;  // BSP payload bytes (sim-comparable)
  std::uint64_t wire_bytes = 0;     // frame bytes incl. headers
  std::uint64_t supersteps = 0;     // counted on rank 0 only
  std::uint64_t stall_us = 0;       // blocked waiting on the wire
};

struct ClusterMetricsSnapshot {
  std::uint32_t num_ranks = 0;  // 0 = no cluster attached
  std::uint64_t jobs = 0;       // distributed matches completed
  std::uint64_t fallbacks = 0;  // networks declined (ran locally)
  std::uint64_t syncs = 0;      // state images shipped to ranks
  std::uint64_t sync_bytes = 0;
  std::vector<ClusterRankMetrics> ranks;

  std::string to_string() const {
    std::ostringstream out;
    if (num_ranks == 0) {
      out << "cluster: not attached\n";
      return out.str();
    }
    out << "cluster: " << num_ranks << " ranks, " << jobs << " jobs, "
        << fallbacks << " local fallbacks, " << syncs << " syncs ("
        << sync_bytes << " bytes)\n";
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const ClusterRankMetrics& m = ranks[r];
      out << "  rank " << r << (m.connected ? "" : " [down]") << ": "
          << m.jobs << " jobs, " << m.messages << " msgs, "
          << m.payload_bytes << " payload B, " << m.wire_bytes
          << " wire B, " << m.supersteps << " supersteps, " << m.stall_us
          << " us stalled\n";
    }
    return out.str();
  }
};

}  // namespace gems::server
