// bench_berlin_e2e — the Berlin BI mix end to end over the wire, split
// layer by layer (see README.md).
//
//   bench_berlin_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--workdir DIR] [--git-sha SHA]
//                    [--scale N] [--warmup S]   (smoke test)
//
// Prints one report line (context and every metric with unit and sample
// count) and, last, the summary line the regression gate reads. Exits
// non-zero when an output check fails. `--role=server` is the server
// child the timed run launches from this same binary.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "net/server.hpp"
#include "process.hpp"
#include "runs.hpp"

#ifndef GEMS_E2E_BUILD_TYPE
#define GEMS_E2E_BUILD_TYPE "unknown"
#endif

namespace gems::bench_e2e {

int server_main(const RunConfig& config, const std::string& store_dir,
                bool recover) {
  const server::DatabaseOptions options =
      server_options(*config.workload, store_dir);
  std::unique_ptr<server::Database> db;
  if (recover) {
    db = std::make_unique<server::Database>(options);
    if (!db->store_status().is_ok()) {
      std::cerr << "server: recovery failed: " << db->store_status().to_string() << "\n";
      return 1;
    }
  } else {
    auto made = bsbm::make_populated_database(dataset_config(config), options);
    if (!made.is_ok()) {
      std::cerr << "server: " << made.status().to_string() << "\n";
      return 1;
    }
    db = std::move(made).value();
    // The generator fills tables directly, bypassing the WAL; the base
    // checkpoint is what makes the dataset durable.
    if (db->durable() && !db->checkpoint().is_ok()) {
      std::cerr << "server: base checkpoint failed\n";
      return 1;
    }
  }
  net::ServerOptions server_opts;
  server_opts.num_workers = 4;
  net::Server server(*db, server_opts);
  if (const Status s = server.start(); !s.is_ok()) {
    std::cerr << "server: " << s.to_string() << "\n";
    return 1;
  }
  ReadyLine ready;
  ready.port = server.port();
  for (const auto& entry : db->catalog()) {
    if (entry.kind == server::CatalogEntry::Kind::kTable) ready.rows += entry.instances;
  }
  ready.rss_kb = proc_status_kb("self", "VmRSS");
  std::cout << format_ready_line(ready) << std::endl;
  server.wait();
  server.stop();
  return 0;
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const std::string& why) {
  std::cerr << "bench_berlin_e2e: " << why
            << "\nusage: bench_berlin_e2e --workload short_reads|long_reads|"
               "reads_with_ingest [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--workdir DIR] [--git-sha SHA] [--scale N] [--warmup S]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::string workdir = "bench-e2e-work";
  bool server_role = false;
  std::string store_dir;
  bool recover = false;
  bool trace = false;
  std::size_t scale = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") workload = value();
      else if (arg == "--seed") config.seed = std::stoull(value());
      else if (arg == "--seconds") config.seconds = std::stod(value());
      else if (arg == "--trace") trace = value() != "0";
      else if (arg == "--workdir") workdir = value();
      else if (arg == "--git-sha") config.git_sha = value();
      else if (arg == "--scale") scale = std::stoull(value());
      else if (arg == "--warmup") config.warmup_s = std::stod(value());
      else if (arg == "--store") store_dir = value();
      else if (arg == "--recover") recover = true;
      else if (arg == "--role=server") server_role = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  config.workload = find_workload(workload);
  if (config.workload == nullptr) return usage("unknown workload '" + workload + "'");
  if (config.seconds <= 0 || config.warmup_s < 0) {
    return usage("--seconds must be positive and --warmup non-negative");
  }
  config.scale = scale > 0 ? scale : config.workload->scale;
  if (server_role) return server_main(config, store_dir, recover);

  std::error_code ec;
  config.self_exe = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  std::filesystem::create_directories(workdir, ec);
  const std::filesystem::path root = std::filesystem::absolute(workdir, ec);
  config.workdir = (root / (workload + "-" + std::to_string(getpid()))).string();
  std::filesystem::remove_all(config.workdir, ec);
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) return usage("cannot create work directory under " + workdir);

  Report report = trace ? run_trace(config, (root / ("trace-" + workload + ".jsonl")).string())
                        : run_timed(config);
  std::filesystem::remove_all(config.workdir, ec);

  std::vector<std::pair<std::string, std::string>> context = {
      {"benchmark", json_string("bench_berlin_e2e")},
      {"workload", json_string(workload)},
      {"seed", std::to_string(config.seed)},
      {"git_sha", json_string(config.git_sha)},
      {"build_type", json_string(GEMS_E2E_BUILD_TYPE)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", json_string(cpu_model())},
      {"scale", std::to_string(config.scale)},
      {"seconds", json_number(config.seconds)},
      {"warmup_s", json_number(config.warmup_s)}};
  report.context.insert(report.context.begin(), context.begin(), context.end());
  const bool complete = print_report(std::cout, report);
  return report.correct && complete ? 0 : 1;
}

}  // namespace gems::bench_e2e

int main(int argc, char** argv) { return gems::bench_e2e::main(argc, argv); }
