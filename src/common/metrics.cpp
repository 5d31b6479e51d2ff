#include "common/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/check.hpp"

namespace gems::metrics {

template <typename T>
T& Registry::slot(std::string_view name) {
  sync::MutexLock lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    it = slots_.emplace(std::string(name), std::make_unique<T>()).first;
  }
  auto* held = std::get_if<std::unique_ptr<T>>(&it->second);
  GEMS_CHECK_MSG(held != nullptr,
                 ("metric '" + std::string(name) +
                  "' registered twice with different kinds")
                     .c_str());
  return **held;
}

template Counter& Registry::slot<Counter>(std::string_view);
template Gauge& Registry::slot<Gauge>(std::string_view);
template Histogram& Registry::slot<Histogram>(std::string_view);

Snapshot Registry::snapshot() const {
  sync::MutexLock lock(mutex_);
  Snapshot out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    Record r;
    r.name = name;
    r.kind = static_cast<Kind>(slot.index());
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&slot)) {
      r.value = (*c)->value();
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&slot)) {
      r.value = (*g)->value();
    } else {
      r.histogram = std::get<std::unique_ptr<Histogram>>(slot)->value();
    }
    out.push_back(std::move(r));
  }
  return out;
}

void merge(Snapshot& into, Snapshot other) {
  const auto middle = static_cast<std::ptrdiff_t>(into.size());
  into.insert(into.end(), std::make_move_iterator(other.begin()),
              std::make_move_iterator(other.end()));
  std::inplace_merge(
      into.begin(), into.begin() + middle, into.end(),
      [](const Record& a, const Record& b) { return a.name < b.name; });
}

const Record* find(const Snapshot& snapshot, std::string_view name) {
  const auto it = std::lower_bound(
      snapshot.begin(), snapshot.end(), name,
      [](const Record& r, std::string_view n) { return r.name < n; });
  return it != snapshot.end() && it->name == name ? &*it : nullptr;
}

std::uint64_t value(const Snapshot& snapshot, std::string_view name) {
  const Record* r = find(snapshot, name);
  GEMS_CHECK_MSG(r != nullptr && r->kind != Kind::kHistogram,
                 ("no counter or gauge named '" + std::string(name) + "'")
                     .c_str());
  return r->value;
}

std::string render(const Snapshot& snapshot, std::string_view prefix) {
  std::size_t width = 0;
  for (const Record& r : snapshot) {
    if (r.name.starts_with(prefix)) width = std::max(width, r.name.size());
  }
  std::ostringstream out;
  for (const Record& r : snapshot) {
    if (!r.name.starts_with(prefix)) continue;
    out << r.name << std::string(width - r.name.size() + 2, ' ');
    if (r.kind != Kind::kHistogram) {
      out << r.value << "\n";
      continue;
    }
    const LatencyHistogram& h = r.histogram;
    out << "n=" << h.count;
    if (h.count > 0) {
      out << " mean=" << static_cast<std::uint64_t>(h.mean_us())
          << " p50=" << h.quantile_us(0.5) << " p99=" << h.quantile_us(0.99)
          << " max=" << h.max_us;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace gems::metrics
