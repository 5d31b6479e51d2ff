#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>

namespace gems::bench_e2e {

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> kNames = {"setup_s", "peak_rss_mb",
                                                  "resident_bytes_per_row"};
  return kNames;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> kNames = {
      "graql.parse.ms",         "graql.ir.ms",
      "graql.analyze.ms",       "server.meta_catalog.ms",
      "server.other.ms",        "server.run_ir.ms",
      "plan.schedule.ms",       "plan.plan_network.ms",
      "net.overhead.ms",        "exec.lower.ms",
      "exec.match.ms",          "exec.match.passes",
      "exec.match.edge_traversals", "exec.match.ns_per_vertex",
      "exec.match.ns_per_edge", "exec.enumerate.ms",
      "exec.enumerate.extensions", "exec.enumerate.yield",
      "exec.collect.ms",        "relational.table_query.ms",
      "relational.rows_in",     "storage.csv_ingest.ms",
      "graph.delta.ms",         "server.ingest.ms",
      "store.wal_append.ms",    "store.checkpoint.ms",
      "store.recover.ms",       "mvcc.publish.ms",
      "trace.overhead_ratio"};
  return kNames;
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::mismatch(const std::string& what) {
  std::cerr << "bench_berlin_e2e: output check failed: " << what << "\n";
  correct = false;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  // Shortest text that reads back as exactly `v`.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

bool print_report(std::ostream& out, const Report& report) {
  std::string line = "{\"context\": {\"mode\": " + json_string(report.mode);
  for (const auto& [key, value] : report.context) {
    line += ", " + json_string(key) + ": " + value;
  }
  line += "}, \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? json_number(m.value) : "null") +
            ", \"unit\": " + json_string(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  line += "}, \"correct\": " + std::string(report.correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(report.failed) + "}";
  out << line << "\n";

  bool complete = true;
  std::string summary;
  const auto& names =
      report.mode == "trace" ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& name : names) {
    const Metric* m = report.find(name);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::cerr << "bench_berlin_e2e: metric " << name << " missing\n";
      complete = false;
      continue;
    }
    if (!summary.empty()) summary += ", ";
    summary += json_string(name) + ": {\"value\": " + json_number(m->value) +
               ", \"unit\": " + json_string(m->unit) + "}";
  }
  out << "{\"correct\": "
      << (report.correct && complete ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {" << summary
      << "}}" << std::endl;
  return complete;
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace gems::bench_e2e
