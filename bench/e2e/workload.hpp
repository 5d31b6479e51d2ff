// bench_berlin_e2e: the three Berlin BI workloads, the fixed server
// configuration they run against, and the seeded request streams that
// drive them. Shared by the timed run (timed.cpp), the in-process traced
// replay (trace.cpp) and the server child (main.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "common/prng.hpp"
#include "exec/executor.hpp"
#include "server/database.hpp"

namespace gems::bench_e2e {

struct Workload {
  std::string name;
  /// Product scale factor handed to bsbm::GeneratorConfig::derive.
  std::size_t scale = 0;
  /// Closed-loop reader connections (readers + writer <= nproc = 4).
  int readers = 0;
  /// Query names (bsbm::all_queries) each reader cycles through.
  std::vector<std::string> mix;
  /// Persistent store with fsync'd WAL and 10 s background checkpoints.
  bool durable = false;
  /// Open-loop writer rate in ingests per second (0 = no writer).
  double ingests_per_s = 0;
  /// Queries whose sampled responses are compared with the oracle. The
  /// oracle holds the base dataset, so with a writer only queries that
  /// never read Reviews can be checked during the window.
  std::vector<std::string> oracle_checked;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Rows per ingest batch (new reviews of existing products and persons).
inline constexpr std::size_t kBatchRows = 100;

/// Everything one run needs, from the command line.
struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 25;    // measured window
  double warmup_s = 3;    // unmeasured load before the window
  std::size_t scale = 0;  // workload->scale unless overridden (smoke test)
  std::string workdir;    // scratch space inside the checkout
  std::string git_sha = "unknown";
  std::string self_exe;   // this binary, relaunched as the server child
};

/// The fixed server configuration, identical on every commit: four
/// intra-node threads and every other option at its default, plus the
/// store settings for a durable workload.
server::DatabaseOptions server_options(const Workload& workload,
                                       const std::string& store_dir);

/// Same seed, same dataset: the server child, the oracle and the traced
/// replay all build from this.
bsbm::GeneratorConfig dataset_config(const RunConfig& config);

struct Request {
  const bsbm::NamedQuery* query = nullptr;
  relational::ParamMap params;
};

/// One client's request sequence: the workload mix round-robin (starting
/// at an offset per client) with parameters drawn uniformly from a
/// per-client PRNG. The same (seed, client) always yields the same
/// sequence.
class RequestStream {
 public:
  RequestStream(const Workload& workload, const bsbm::GeneratorConfig& data,
                std::uint64_t seed, int client);

  Request next();

 private:
  std::vector<const bsbm::NamedQuery*> mix_;
  const bsbm::GeneratorConfig& data_;
  Xoshiro256 rng_;
  std::size_t next_ = 0;
};

const bsbm::NamedQuery& named_query(std::string_view name);

/// Canonical bytes of a script's results: per statement its kind, `into`
/// name, truncation flag and message, then its table as CSV. Identical
/// for a Database::run_script result and the same result decoded from the
/// wire. With `answer_only`, only the last statement's result.
std::string render(const std::vector<exec::StatementResult>& results,
                   bool answer_only);

/// CSV (schema order, no header) of `kBatchRows` new reviews with ids
/// r<first_id>.., of products and persons that exist in `data`.
std::string review_batch_csv(const bsbm::GeneratorConfig& data,
                             std::size_t first_id, Xoshiro256& rng);

/// Writes `count` review batches as <dir>/batch<i>.csv and returns their
/// paths. Ids continue after `base_reviews`, so every batch appends.
std::vector<std::string> write_review_batches(
    const bsbm::GeneratorConfig& data, std::size_t base_reviews,
    std::size_t count, std::uint64_t seed, const std::string& dir);

std::string ingest_script(const std::string& batch_path);

}  // namespace gems::bench_e2e
