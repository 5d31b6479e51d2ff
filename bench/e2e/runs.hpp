// The three roles of bench_berlin_e2e.
#pragma once

#include <string>

#include "report.hpp"
#include "workload.hpp"

namespace gems::bench_e2e {

/// End-to-end run against a server child (timed.cpp).
Report run_timed(const RunConfig& config);

/// In-process replay that splits each request by layer (trace.cpp).
/// Writes its spans to `spans_path` as JSON lines.
Report run_trace(const RunConfig& config, const std::string& spans_path);

/// The server child: builds (or, with `recover`, reopens) the database,
/// serves it and prints the ready line; returns the exit code.
int server_main(const RunConfig& config, const std::string& store_dir,
                bool recover);

}  // namespace gems::bench_e2e
