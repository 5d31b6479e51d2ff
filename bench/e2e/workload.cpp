#include "workload.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "storage/csv.hpp"
#include "storage/type.hpp"

namespace gems::bench_e2e {

const std::vector<Workload>& workloads() {
  // Why these three (see README.md): short_reads is dominated by fixed
  // per-request cost (front end, wire, epoch pin/commit/publish) on data
  // that fits in cache; long_reads by scans, frontier expansion and
  // group-by over data larger than the 105 MiB L3; reads_with_ingest puts
  // the exclusive ingest path (CSV, fsync'd WAL, CSR delta, publish) and
  // background checkpoints beside the read path.
  static const std::vector<Workload> kWorkloads = {
      {"short_reads", 2000, 4, {"Q2", "Q3", "Q4", "Q6", "Q8"}, false, 0,
       {"Q2", "Q3", "Q4", "Q6", "Q8"}},
      {"long_reads", 40000, 2, {"Q1", "Q5", "Q7", "Q9"}, false, 0,
       {"Q1", "Q5", "Q7", "Q9"}},
      {"reads_with_ingest", 20000, 3, {"Q1", "Q2", "Q6", "Q8"}, true, 5.0,
       {"Q2", "Q8"}},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

server::DatabaseOptions server_options(const Workload& workload,
                                       const std::string& store_dir) {
  server::DatabaseOptions options;
  options.intra_node_threads = 4;
  if (workload.durable) {
    options.store_dir = store_dir;
    options.wal_fsync = true;
    options.checkpoint_interval_ms = 10000;
  }
  return options;
}

bsbm::GeneratorConfig dataset_config(const RunConfig& config) {
  return bsbm::GeneratorConfig::derive(config.scale, config.seed);
}

const bsbm::NamedQuery& named_query(std::string_view name) {
  static const std::vector<bsbm::NamedQuery> kQueries = bsbm::all_queries();
  for (const auto& q : kQueries) {
    if (q.name == name) return q;
  }
  GEMS_UNREACHABLE("unknown Berlin query");
}

RequestStream::RequestStream(const Workload& workload,
                             const bsbm::GeneratorConfig& data,
                             std::uint64_t seed, int client)
    : data_(data),
      rng_(SplitMix64(seed * 1000003u + static_cast<std::uint64_t>(client))
               .next()),
      next_(static_cast<std::size_t>(client)) {
  for (const auto& name : workload.mix) mix_.push_back(&named_query(name));
}

Request RequestStream::next() {
  Request r;
  r.query = mix_[next_++ % mix_.size()];
  const auto& countries = bsbm::countries();
  for (const auto& p : r.query->params) {
    storage::Value v;
    if (p == "Product1") {
      v = storage::Value::varchar(bsbm::product_id(rng_.below(data_.num_products)));
    } else if (p == "Type1") {
      v = storage::Value::varchar(bsbm::type_id(rng_.below(data_.num_types)));
    } else if (p == "Producer1") {
      v = storage::Value::varchar(
          bsbm::producer_id(rng_.below(data_.num_producers)));
    } else if (p == "Country1" || p == "Country2") {
      v = storage::Value::varchar(countries[rng_.below(countries.size())]);
    } else if (p == "Date1") {
      v = storage::Value::date(storage::civil_to_days(2008, 1, 1) +
                               rng_.range(0, 365));
    } else {
      GEMS_UNREACHABLE("query parameter without a generator");
    }
    r.params.emplace(p, std::move(v));
  }
  return r;
}

std::string render(const std::vector<exec::StatementResult>& results,
                   bool answer_only) {
  std::ostringstream out;
  const std::size_t first = answer_only && !results.empty() ? results.size() - 1 : 0;
  for (std::size_t i = first; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "#" << static_cast<int>(r.kind) << " " << r.into_name << " "
        << r.truncated << " " << r.message << "\n";
    if (r.table != nullptr) storage::write_csv(*r.table, out);
  }
  return out.str();
}

std::string review_batch_csv(const bsbm::GeneratorConfig& data,
                             std::size_t first_id, Xoshiro256& rng) {
  const std::int64_t jan1 = storage::civil_to_days(2008, 1, 1);
  auto rating = [&rng]() -> std::string {
    // Empty unquoted field = NULL, as some generated ratings are.
    return rng.chance(0.2) ? "" : std::to_string(rng.range(1, 10));
  };
  std::ostringstream out;
  for (std::size_t k = 0; k < kBatchRows; ++k) {
    const std::size_t id = first_id + k;
    out << bsbm::review_id(id) << ",Review,"
        << bsbm::product_id(rng.below(data.num_products)) << ","
        << bsbm::person_id(rng.below(data.num_persons)) << ","
        << storage::format_date(jan1 + rng.range(0, 364)) << ",T"
        << id % 100 << ",txt," << rating() << "," << rating() << ","
        << rating() << "," << rating() << ",gen,"
        << storage::format_date(jan1 + rng.range(0, 364)) << "\n";
  }
  return out.str();
}

std::vector<std::string> write_review_batches(
    const bsbm::GeneratorConfig& data, std::size_t base_reviews,
    std::size_t count, std::uint64_t seed, const std::string& dir) {
  Xoshiro256 rng(SplitMix64(seed ^ 0x5eedba7c4ull).next());
  std::vector<std::string> paths;
  for (std::size_t b = 0; b < count; ++b) {
    paths.push_back(dir + "/batch" + std::to_string(b) + ".csv");
    std::ofstream f(paths.back(), std::ios::binary);
    f << review_batch_csv(data, base_reviews + b * kBatchRows, rng);
    GEMS_CHECK_MSG(f.good(), "cannot write an ingest batch");
  }
  return paths;
}

std::string ingest_script(const std::string& batch_path) {
  return "ingest table Reviews '" + batch_path + "'";
}

}  // namespace gems::bench_e2e
