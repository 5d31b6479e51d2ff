// gems::metrics — one registry of named counters, gauges and latency
// histograms for every layer (DESIGN.md §5l).
//
// A component registers each of its names once, at construction, and keeps
// the returned handle; recording is then a relaxed atomic add (counters,
// gauges) or a short lock (histograms) — never a name lookup. `snapshot()`
// returns one list of `(name, kind, value)` records sorted by name, and
// snapshots of several registries merge into one. That list is the whole
// observability surface: the net `stats` verb ships it as self-describing
// records (net/metrics.hpp), and `render` is the one text rendering, used
// by the shell's `\stats [prefix]` in both local and remote mode.
//
// Names are dotted and lowercase (`store.wal.records`,
// `net.run_script.execute_us`); durations carry their unit as a suffix
// (`_us`, `_ns`) and booleans are 0/1 gauges.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/histogram.hpp"
#include "common/sync.hpp"

namespace gems::metrics {

/// Record kinds. The numeric values travel on the wire: never renumber.
enum class Kind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// A monotone total. Adds are relaxed: they order nothing, they only have
/// to add up.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A level that can go down as well as up (sizes, flags as 0/1).
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A LatencyHistogram behind its own short lock.
class Histogram {
 public:
  void record(std::uint64_t us) {
    sync::MutexLock lock(mutex_);
    value_.record(us);
  }
  void merge(const LatencyHistogram& other) {
    sync::MutexLock lock(mutex_);
    value_.merge(other);
  }
  LatencyHistogram value() const {
    sync::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable sync::Mutex mutex_;
  LatencyHistogram value_ GEMS_GUARDED_BY(mutex_);
};

/// One metric at snapshot time.
struct Record {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;     // counters and gauges (0 for histograms)
  LatencyHistogram histogram;  // histograms only

  bool operator==(const Record&) const = default;
};

/// Records sorted by name, names unique.
using Snapshot = std::vector<Record>;

class Registry {
 public:
  /// The metric named `name`, registered on first use. Registering an
  /// existing name returns the same handle; registering it as another
  /// kind is a programming error (checked). Handles live as long as the
  /// registry.
  Counter& counter(std::string_view name) { return slot<Counter>(name); }
  Gauge& gauge(std::string_view name) { return slot<Gauge>(name); }
  Histogram& histogram(std::string_view name) {
    return slot<Histogram>(name);
  }

  Snapshot snapshot() const;

 private:
  template <typename T>
  T& slot(std::string_view name);

  // Alternative index == Kind.
  using Slot = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                            std::unique_ptr<Histogram>>;

  mutable sync::Mutex mutex_;
  std::map<std::string, Slot, std::less<>> slots_ GEMS_GUARDED_BY(mutex_);
};

/// Merges `other` into `into`; both sorted by name, and so is the result.
void merge(Snapshot& into, Snapshot other);

/// The record named `name`, or nullptr.
const Record* find(const Snapshot& snapshot, std::string_view name);

/// Value of the counter or gauge named `name`. The record must exist and
/// must not be a histogram (checked), so a misspelt or renamed name fails
/// loudly instead of reading 0; use `find` where absence is expected.
std::uint64_t value(const Snapshot& snapshot, std::string_view name);

/// One aligned line per record whose name starts with `prefix`:
/// counters and gauges print their value, histograms
/// `n=… mean=… p50=… p99=… max=…`.
std::string render(const Snapshot& snapshot, std::string_view prefix = {});

}  // namespace gems::metrics
