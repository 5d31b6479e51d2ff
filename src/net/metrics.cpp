#include "net/metrics.hpp"

#include <algorithm>
#include <string>

namespace gems::net {

void encode_snapshot(const metrics::Snapshot& snapshot,
                     std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(snapshot.size()));
  for (const metrics::Record& r : snapshot) {
    w.str(r.name);
    w.u8(static_cast<std::uint8_t>(r.kind));
    if (r.kind != metrics::Kind::kHistogram) {
      w.u64(r.value);
      continue;
    }
    const LatencyHistogram& h = r.histogram;
    w.u64(h.count);
    w.u64(h.sum_us);
    w.u64(h.max_us);
    w.u32(static_cast<std::uint32_t>(LatencyHistogram::kBuckets));
    for (const std::uint64_t b : h.buckets) w.u64(b);
  }
}

Result<metrics::Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, StatusCode::kParseError, "malformed stats");
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("metrics records"));
  // No reserve(n): a record is far larger in memory than its 13-byte
  // minimum encoding, so the vector grows only with records that decode.
  metrics::Snapshot snapshot;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t at = r.pos();
    metrics::Record rec;
    GEMS_ASSIGN_OR_RETURN(rec.name, r.str());
    if (!snapshot.empty() && !(snapshot.back().name < rec.name)) {
      return r.error_at(at, "record '" + rec.name + "' out of name order");
    }
    GEMS_ASSIGN_OR_RETURN(rec.kind,
                          r.enum8(metrics::Kind::kHistogram, "record kind"));
    if (rec.kind != metrics::Kind::kHistogram) {
      GEMS_ASSIGN_OR_RETURN(rec.value, r.u64());
    } else {
      LatencyHistogram& h = rec.histogram;
      GEMS_ASSIGN_OR_RETURN(h.count, r.u64());
      GEMS_ASSIGN_OR_RETURN(h.sum_us, r.u64());
      GEMS_ASSIGN_OR_RETURN(h.max_us, r.u64());
      const std::size_t buckets_at = r.pos();
      GEMS_ASSIGN_OR_RETURN(std::uint32_t buckets,
                            r.count("histogram buckets"));
      if (buckets != LatencyHistogram::kBuckets) {
        return r.error_at(buckets_at,
                          std::to_string(buckets) +
                              " histogram buckets, expected " +
                              std::to_string(LatencyHistogram::kBuckets));
      }
      for (std::uint64_t& b : h.buckets) {
        GEMS_ASSIGN_OR_RETURN(b, r.u64());
      }
    }
    snapshot.push_back(std::move(rec));
  }
  GEMS_RETURN_IF_ERROR(r.expect_end("stats records"));
  return snapshot;
}

RequestMetrics::RequestMetrics(metrics::Registry& registry) {
  verbs_.reserve(kNumVerbs);
  for (std::size_t i = 0; i < kNumVerbs; ++i) {
    std::string prefix = "net." + std::string(verb_name(static_cast<Verb>(i)));
    std::replace(prefix.begin(), prefix.end(), '-', '_');
    prefix += '.';
    verbs_.push_back(PerVerb{
        registry.counter(prefix + "requests"),
        registry.counter(prefix + "ok"),
        registry.counter(prefix + "errors"),
        registry.counter(prefix + "overloaded"),
        registry.counter(prefix + "expired"),
        registry.counter(prefix + "cancelled"),
        registry.counter(prefix + "bytes_in"),
        registry.counter(prefix + "bytes_out"),
        registry.histogram(prefix + "queue_wait_us"),
        registry.histogram(prefix + "execute_us"),
    });
  }
}

void RequestMetrics::record(Verb verb, const Outcome& outcome) {
  PerVerb& v = verbs_[static_cast<std::size_t>(verb)];
  v.requests.add();
  switch (outcome.code) {
    case StatusCode::kOk:
      v.ok.add();
      break;
    case StatusCode::kOverloaded:
      v.overloaded.add();
      break;
    case StatusCode::kDeadlineExceeded:
      v.expired.add();
      break;
    case StatusCode::kCancelled:
      v.cancelled.add();
      break;
    default:
      v.errors.add();
      break;
  }
  v.bytes_in.add(outcome.bytes_in);
  v.bytes_out.add(outcome.bytes_out);
  if (outcome.code == StatusCode::kOk ||
      outcome.code == StatusCode::kDeadlineExceeded ||
      outcome.code == StatusCode::kCancelled) {
    v.queue_wait_us.record(outcome.queue_wait_us);
  }
  if (outcome.code == StatusCode::kOk) v.execute_us.record(outcome.execute_us);
}

}  // namespace gems::net
