// Shared fixtures for the benchmark harness: cached populated databases
// per scale factor and the standard Berlin parameter bindings.
#pragma once

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "server/database.hpp"

namespace gems::bench {

/// A populated Berlin database at the given product scale factor, with
/// `intra_node_threads` intra-node workers (0 = serial), built once per
/// process and shared by all benchmark iterations.
inline server::Database& berlin_db(std::size_t scale,
                                   std::uint64_t seed = 42,
                                   std::size_t intra_node_threads = 0) {
  static std::map<std::tuple<std::size_t, std::uint64_t, std::size_t>,
                  std::unique_ptr<server::Database>>
      cache;
  const auto key = std::make_tuple(scale, seed, intra_node_threads);
  auto it = cache.find(key);
  if (it == cache.end()) {
    server::DatabaseOptions options;
    options.intra_node_threads = intra_node_threads;
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(scale, seed), options);
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    it = cache.emplace(key, std::move(db).value()).first;
  }
  return *it->second;
}

inline relational::ParamMap berlin_params() {
  relational::ParamMap params;
  params.emplace("Country1", storage::Value::varchar("US"));
  params.emplace("Country2", storage::Value::varchar("DE"));
  params.emplace("Product1", storage::Value::varchar("p0"));
  params.emplace("Type1", storage::Value::varchar("t1"));
  params.emplace("Producer1", storage::Value::varchar("pr0"));
  params.emplace("Date1",
                 storage::Value::date(storage::civil_to_days(2008, 6, 15)));
  return params;
}

/// Runs a script and aborts the benchmark on error.
inline exec::StatementResult must_run(server::Database& db,
                                      const std::string& script,
                                      const relational::ParamMap& params) {
  auto r = db.run_script(script, params);
  GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
  GEMS_CHECK(!r->empty());
  return std::move(r->back());
}

}  // namespace gems::bench
