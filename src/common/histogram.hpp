// Log-scale latency histogram, the value type of the metrics registry's
// histograms (common/metrics.hpp). Bucket i counts samples whose latency in microseconds has
// bit-width i (i.e. [2^(i-1), 2^i)). 40 buckets cover up to ~12.7 days,
// so nothing ever clips.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace gems {

struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 40;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;

  void record(std::uint64_t us);

  /// Quantile estimate (q in [0,1]) in microseconds: the upper edge of the
  /// bucket holding the q-th sample. 0 when empty.
  std::uint64_t quantile_us(double q) const;

  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / count;
  }

  /// Merges another histogram into this one.
  void merge(const LatencyHistogram& other);

  bool operator==(const LatencyHistogram&) const = default;
};

}  // namespace gems
