#include "net/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace gems::net {

VerbMetrics MetricsSnapshot::total() const {
  VerbMetrics t;
  for (const auto& v : verbs) {
    t.requests += v.requests;
    t.ok += v.ok;
    t.errors += v.errors;
    t.overloaded += v.overloaded;
    t.expired += v.expired;
    t.cancelled += v.cancelled;
    t.bytes_in += v.bytes_in;
    t.bytes_out += v.bytes_out;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      t.queue_wait.buckets[i] += v.queue_wait.buckets[i];
      t.execute.buckets[i] += v.execute.buckets[i];
    }
    t.queue_wait.count += v.queue_wait.count;
    t.queue_wait.sum_us += v.queue_wait.sum_us;
    t.queue_wait.max_us = std::max(t.queue_wait.max_us, v.queue_wait.max_us);
    t.execute.count += v.execute.count;
    t.execute.sum_us += v.execute.sum_us;
    t.execute.max_us = std::max(t.execute.max_us, v.execute.max_us);
  }
  return t;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream out;
  out << "verb         reqs     ok    err  over  expd  canc   "
         "bytes_in  bytes_out  queue p50/p99 us  exec p50/p99 us\n";
  for (std::size_t i = 0; i < kNumVerbs; ++i) {
    const VerbMetrics& v = verbs[i];
    if (v.requests == 0) continue;
    char line[192];
    std::snprintf(
        line, sizeof(line),
        "%-10s %6llu %6llu %6llu %5llu %5llu %5llu %10llu %10llu "
        "%7llu/%-7llu %7llu/%-7llu\n",
        std::string(verb_name(static_cast<Verb>(i))).c_str(),
        static_cast<unsigned long long>(v.requests),
        static_cast<unsigned long long>(v.ok),
        static_cast<unsigned long long>(v.errors),
        static_cast<unsigned long long>(v.overloaded),
        static_cast<unsigned long long>(v.expired),
        static_cast<unsigned long long>(v.cancelled),
        static_cast<unsigned long long>(v.bytes_in),
        static_cast<unsigned long long>(v.bytes_out),
        static_cast<unsigned long long>(v.queue_wait.quantile_us(0.5)),
        static_cast<unsigned long long>(v.queue_wait.quantile_us(0.99)),
        static_cast<unsigned long long>(v.execute.quantile_us(0.5)),
        static_cast<unsigned long long>(v.execute.quantile_us(0.99)));
    out << line;
  }
  if (access.exclusive_acquired > 0) {
    out << access.to_string();
  }
  if (cluster.num_ranks > 0) {
    out << cluster.to_string();
  }
  if (!epoch.empty()) {
    out << epoch.to_string() << "\n";
  }
  return out.str();
}

namespace {

void encode_histogram(const LatencyHistogram& h, WireWriter& w) {
  w.u64(h.count);
  w.u64(h.sum_us);
  w.u64(h.max_us);
  w.u32(static_cast<std::uint32_t>(LatencyHistogram::kBuckets));
  for (const std::uint64_t b : h.buckets) w.u64(b);
}

Result<LatencyHistogram> decode_histogram(WireReader& r) {
  LatencyHistogram h;
  GEMS_ASSIGN_OR_RETURN(h.count, r.u64());
  GEMS_ASSIGN_OR_RETURN(h.sum_us, r.u64());
  GEMS_ASSIGN_OR_RETURN(h.max_us, r.u64());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("histogram buckets"));
  for (std::uint32_t i = 0; i < n; ++i) {
    GEMS_ASSIGN_OR_RETURN(std::uint64_t b, r.u64());
    // Tolerate a peer with more/fewer buckets: clamp into ours.
    h.buckets[std::min<std::size_t>(i, LatencyHistogram::kBuckets - 1)] += b;
  }
  return h;
}

}  // namespace

void encode_snapshot(const MetricsSnapshot& snap,
                     std::vector<std::uint8_t>& out) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(kNumVerbs));
  for (const auto& v : snap.verbs) {
    w.u64(v.requests);
    w.u64(v.ok);
    w.u64(v.errors);
    w.u64(v.overloaded);
    w.u64(v.expired);
    w.u64(v.cancelled);
    w.u64(v.bytes_in);
    w.u64(v.bytes_out);
    encode_histogram(v.queue_wait, w);
    encode_histogram(v.execute, w);
  }
  // Optional blocks ride at the tail — writer lock, cluster, epoch, in
  // that order. The decoder reads each only when bytes remain, so a
  // payload cut at a block boundary still decodes. Changing a block's
  // layout shifts the ones after it and needs a kWireVersion bump.
  w.u64(snap.access.exclusive_acquired);
  w.u64(snap.access.exclusive_wait_us);
  w.u64(snap.access.exclusive_held_us);
  w.u32(snap.cluster.num_ranks);
  w.u64(snap.cluster.jobs);
  w.u64(snap.cluster.fallbacks);
  w.u64(snap.cluster.syncs);
  w.u64(snap.cluster.sync_bytes);
  w.u32(static_cast<std::uint32_t>(snap.cluster.ranks.size()));
  for (const auto& m : snap.cluster.ranks) {
    w.boolean(m.connected);
    w.u64(m.jobs);
    w.u64(m.messages);
    w.u64(m.payload_bytes);
    w.u64(m.wire_bytes);
    w.u64(m.supersteps);
    w.u64(m.stall_us);
  }
  w.u64(snap.epoch.published);
  w.u64(snap.epoch.retired);
  w.u64(snap.epoch.freed);
  w.u64(snap.epoch.live);
  w.u64(snap.epoch.pins_taken);
  w.u64(snap.epoch.pinned_readers);
  w.u64(snap.epoch.peak_pinned_readers);
  w.u64(snap.epoch.oldest_pin_age_us);
  w.u64(snap.epoch.delta_ingests);
  w.u64(snap.epoch.full_rebuilds);
  w.u64(snap.epoch.delta_build_ns);
  w.u64(snap.epoch.rebuild_ns);
  w.u64(snap.epoch.current_epoch);
  std::vector<std::uint8_t> bytes = w.take();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

Result<MetricsSnapshot> decode_snapshot(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("verb metrics"));
  MetricsSnapshot snap;
  for (std::uint32_t i = 0; i < n; ++i) {
    VerbMetrics scratch;
    VerbMetrics& v = i < kNumVerbs ? snap.verbs[i] : scratch;
    GEMS_ASSIGN_OR_RETURN(v.requests, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.ok, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.errors, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.overloaded, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.expired, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.cancelled, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.bytes_in, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.bytes_out, r.u64());
    GEMS_ASSIGN_OR_RETURN(v.queue_wait, decode_histogram(r));
    GEMS_ASSIGN_OR_RETURN(v.execute, decode_histogram(r));
  }
  if (!r.at_end()) {
    GEMS_ASSIGN_OR_RETURN(snap.access.exclusive_acquired, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.access.exclusive_wait_us, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.access.exclusive_held_us, r.u64());
  }
  if (!r.at_end()) {
    GEMS_ASSIGN_OR_RETURN(snap.cluster.num_ranks, r.u32());
    GEMS_ASSIGN_OR_RETURN(snap.cluster.jobs, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.cluster.fallbacks, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.cluster.syncs, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.cluster.sync_bytes, r.u64());
    GEMS_ASSIGN_OR_RETURN(std::uint32_t n_ranks, r.count("cluster ranks"));
    snap.cluster.ranks.resize(n_ranks);
    for (std::uint32_t i = 0; i < n_ranks; ++i) {
      server::ClusterRankMetrics& m = snap.cluster.ranks[i];
      GEMS_ASSIGN_OR_RETURN(m.connected, r.boolean());
      GEMS_ASSIGN_OR_RETURN(m.jobs, r.u64());
      GEMS_ASSIGN_OR_RETURN(m.messages, r.u64());
      GEMS_ASSIGN_OR_RETURN(m.payload_bytes, r.u64());
      GEMS_ASSIGN_OR_RETURN(m.wire_bytes, r.u64());
      GEMS_ASSIGN_OR_RETURN(m.supersteps, r.u64());
      GEMS_ASSIGN_OR_RETURN(m.stall_us, r.u64());
    }
  }
  if (!r.at_end()) {
    GEMS_ASSIGN_OR_RETURN(snap.epoch.published, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.retired, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.freed, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.live, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.pins_taken, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.pinned_readers, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.peak_pinned_readers, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.oldest_pin_age_us, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.delta_ingests, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.full_rebuilds, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.delta_build_ns, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.rebuild_ns, r.u64());
    GEMS_ASSIGN_OR_RETURN(snap.epoch.current_epoch, r.u64());
  }
  return snap;
}

void MetricsRegistry::record(Verb verb, const Outcome& outcome) {
  sync::MutexLock lock(mutex_);
  VerbMetrics& v = state_.verbs[static_cast<std::size_t>(verb)];
  ++v.requests;
  switch (outcome.code) {
    case StatusCode::kOk:
      ++v.ok;
      break;
    case StatusCode::kOverloaded:
      ++v.overloaded;
      break;
    case StatusCode::kDeadlineExceeded:
      ++v.expired;
      break;
    case StatusCode::kCancelled:
      ++v.cancelled;
      break;
    default:
      ++v.errors;
      break;
  }
  v.bytes_in += outcome.bytes_in;
  v.bytes_out += outcome.bytes_out;
  if (outcome.code == StatusCode::kOk ||
      outcome.code == StatusCode::kDeadlineExceeded ||
      outcome.code == StatusCode::kCancelled) {
    v.queue_wait.record(outcome.queue_wait_us);
  }
  if (outcome.code == StatusCode::kOk) v.execute.record(outcome.execute_us);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  sync::MutexLock lock(mutex_);
  return state_;
}

}  // namespace gems::net
