// bench_berlin_e2e output: one report line (context block plus every
// metric with its unit and sample count) followed by the summary line the
// regression gate reads, which carries only the metrics BENCHMARK.json
// names for the run's mode.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gems::bench_e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::string mode;  // "timed" or "trace"
  /// Extra context entries as (key, already-encoded JSON value).
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<Metric> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  const Metric* find(const std::string& name) const;

  /// Records a failed output check: the run reports correct=false and
  /// exits non-zero.
  void mismatch(const std::string& what);
};

/// BENCHMARK.json's `end_to_end` names (timed runs) and `per_layer` names
/// (traced runs), in the order the summary line prints them.
const std::vector<std::string>& end_to_end_metrics();
const std::vector<std::string>& per_layer_metrics();

/// Prints the report line, then the summary line. False (and correct=false
/// in the summary) when a metric the summary needs is missing or not
/// finite.
bool print_report(std::ostream& out, const Report& report);

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double quantile(std::vector<double>& samples, double q);
double mean(const std::vector<double>& samples);

}  // namespace gems::bench_e2e
