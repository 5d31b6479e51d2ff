// graql_shell — the "simple command-line interface" client of the GEMS
// architecture (paper Sec. III, component 1). Reads GraQL statements from
// stdin (terminated by a blank line or ';'), runs them through the server
// pipeline, prints result tables/subgraphs.
//
//   $ ./examples/graql_shell [--berlin N] [--data-dir DIR]
//   $ ./examples/graql_shell --serve 7687 [--berlin N]     # wire server
//   $ ./examples/graql_shell --connect host:7687           # wire client
//   $ ./examples/graql_shell --cluster-coordinator 2 [--cluster-port P]
//   $ ./examples/graql_shell --cluster-rank R --connect host:7688
//
// By default the shell runs the whole GEMS stack in-process. With
// `--serve` it becomes the server end of the gems::net wire (and serves
// until a client sends the shutdown verb or stdin closes); with
// `--connect` it parses and compiles GraQL locally and ships the binary
// IR to a remote server.
//
// Cluster modes (DESIGN.md §5h) make the paper's multi-node backend
// literal: `--cluster-coordinator N` keeps the normal shell loop (and
// composes with `--serve`) but routes distributable graph queries to N
// rank worker processes over the BSP wire; `--cluster-rank R` turns the
// process into rank R, using `--connect HOST:PORT` as the coordinator
// address and `--data-dir DIR` (DIR/store) as its recoverable state
// directory.
//
// `--data-dir DIR` makes the database durable (gems::store): DIR is the
// base for relative ingest paths, and DIR/store holds the snapshot +
// write-ahead log. Restarting the shell with the same --data-dir recovers
// the previous state; `\checkpoint` snapshots on demand.
//
// Shell meta-commands:
//   \catalog          list all database objects with sizes
//   \set NAME VALUE   bind a %parameter% (values: int, float, 'string',
//                     date 'YYYY-MM-DD', true/false)
//   \params           show bound parameters
//   \check            only statically analyze the next statement
//   \lint FILE        multi-error static analysis of a script file:
//                     file:line:col: warning[GQL0042]: ... (colored on a
//                     terminal; \-meta-command lines are skipped)
//   \explain          show the query plan for the next statement
//   \stats [PREFIX]   metrics registry records whose name starts with
//                     PREFIX (e.g. store., exec.match., mvcc., cluster.,
//                     net. when remote); local and over --connect
//   \checkpoint       snapshot the database and rotate the WAL (durable)
//   \shutdown         ask the remote server to shut down (remote mode)
//   \quit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>

#include "bsbm/generator.hpp"
#include "bsbm/schema.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/rank_worker.hpp"
#include "common/metrics.hpp"
#include "graql/diag.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "server/database.hpp"

namespace {

using gems::storage::Value;

/// Parses a \set value: int, float, quoted string, date '...', booleans.
gems::Result<Value> parse_param_value(const std::string& text) {
  if (text.empty()) return gems::invalid_argument("empty value");
  if (text == "true") return Value::boolean(true);
  if (text == "false") return Value::boolean(false);
  if (text.front() == '\'' && text.back() == '\'' && text.size() >= 2) {
    return Value::varchar(text.substr(1, text.size() - 2));
  }
  if (text.rfind("date", 0) == 0) {
    std::string rest = text.substr(4);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\'')) {
      rest.erase(rest.begin());
    }
    while (!rest.empty() && rest.back() == '\'') rest.pop_back();
    auto days = gems::storage::parse_date(rest);
    if (!days.is_ok()) return days.status();
    return Value::date(days.value());
  }
  if (text.find('.') != std::string::npos) {
    return Value::float64(std::strtod(text.c_str(), nullptr));
  }
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Value::varchar(text);  // bare word: treat as string
  }
  return Value::int64(v);
}

/// The two execution ends the shell can drive: the in-process Database or
/// a remote server over the gems::net wire. Same API either way — that is
/// the point of the serialized-IR hand-off.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual gems::Result<std::vector<gems::exec::StatementResult>> run(
      const std::string& text, const gems::relational::ParamMap& params) = 0;
  virtual gems::Status check(const std::string& text,
                             const gems::relational::ParamMap& params) = 0;
  virtual gems::Result<std::vector<gems::graql::Diagnostic>> lint(
      const std::string& text, const gems::relational::ParamMap& params) = 0;
  virtual gems::Result<std::string> explain(
      const std::string& text, const gems::relational::ParamMap& params) = 0;
  virtual gems::Result<std::string> catalog_summary() = 0;
  virtual gems::Result<gems::metrics::Snapshot> stats() = 0;
  virtual gems::Status shutdown_server() {
    return gems::unimplemented("\\shutdown needs --connect (remote mode)");
  }
  virtual gems::Status checkpoint() {
    return gems::unimplemented("\\checkpoint needs a local --data-dir store");
  }
};

class LocalBackend : public Backend {
 public:
  explicit LocalBackend(gems::server::Database& db) : db_(db) {}
  gems::Result<std::vector<gems::exec::StatementResult>> run(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    auto results = db_.run_script(text, params);
    // Same bounded retry the net client performs: kUnavailable is the
    // typed "nothing executed, transient" status (a cluster rank died
    // before the job ran, or a named subgraph was invalidated between
    // statements) — one re-run usually finds the condition healed.
    if (!results.is_ok() &&
        results.status().code() == gems::StatusCode::kUnavailable) {
      results = db_.run_script(text, params);
    }
    return results;
  }
  gems::Status check(const std::string& text,
                     const gems::relational::ParamMap& params) override {
    return db_.check_script(text, &params);
  }
  gems::Result<std::vector<gems::graql::Diagnostic>> lint(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    return db_.check(text, &params);
  }
  gems::Result<std::string> explain(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    return db_.explain(text, params);
  }
  gems::Result<std::string> catalog_summary() override {
    return db_.catalog_summary();
  }
  gems::Result<gems::metrics::Snapshot> stats() override {
    return db_.metrics_snapshot();
  }
  gems::Status checkpoint() override { return db_.checkpoint(); }

 private:
  gems::server::Database& db_;
};

class RemoteBackend : public Backend {
 public:
  explicit RemoteBackend(gems::net::Client& client) : client_(client) {}
  gems::Result<std::vector<gems::exec::StatementResult>> run(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    return client_.run_script(text, params);
  }
  gems::Status check(const std::string& text,
                     const gems::relational::ParamMap& params) override {
    return client_.check_script(text, &params);
  }
  gems::Result<std::vector<gems::graql::Diagnostic>> lint(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    return client_.check(text, &params);
  }
  gems::Result<std::string> explain(
      const std::string& text,
      const gems::relational::ParamMap& params) override {
    return client_.explain(text, params);
  }
  gems::Result<std::string> catalog_summary() override {
    auto entries = client_.catalog();
    if (!entries.is_ok()) return entries.status();
    auto kind_name = [](gems::server::CatalogEntry::Kind k) {
      switch (k) {
        case gems::server::CatalogEntry::Kind::kTable:
          return "table   ";
        case gems::server::CatalogEntry::Kind::kVertexType:
          return "vertex  ";
        case gems::server::CatalogEntry::Kind::kEdgeType:
          return "edge    ";
        case gems::server::CatalogEntry::Kind::kSubgraph:
          return "subgraph";
      }
      return "?";
    };
    std::ostringstream out;
    for (const auto& e : entries.value()) {
      out << kind_name(e.kind) << "  " << e.name << "  " << e.instances
          << " instances";
      if (e.byte_size > 0) out << ", " << e.byte_size << " bytes";
      out << "\n";
    }
    return out.str();
  }
  gems::Result<gems::metrics::Snapshot> stats() override {
    return client_.stats();
  }
  gems::Status shutdown_server() override {
    return client_.shutdown_server();
  }

 private:
  gems::net::Client& client_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--berlin N] [--threads N] [--data-dir DIR] "
               "[--serve PORT | --connect HOST:PORT]\n"
               "          [--cluster-coordinator N [--cluster-port P]]\n"
               "          [--cluster-rank R --connect HOST:PORT] "
               "< script.graql\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gems::server::DatabaseOptions options;
  std::size_t berlin_scale = 0;
  int serve_port = -1;
  std::string connect_target;
  int cluster_ranks = 0;                // --cluster-coordinator N
  std::uint16_t cluster_port = 7688;    // BSP listener (0 = ephemeral)
  int cluster_rank = -1;                // --cluster-rank R
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--berlin") == 0 && i + 1 < argc) {
      berlin_scale = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      options.data_dir = argv[++i];
      // DIR doubles as the persistence root: CSV ingest paths resolve
      // against DIR, snapshot + WAL live under DIR/store.
      options.store_dir = options.data_dir + "/store";
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Intra-node pool for the graph rebuild (DESIGN.md §5e); a
      // request matches and scans on its own thread.
      options.intra_node_threads =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
      if (serve_port < 0 || serve_port > 65535) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_target = argv[++i];
    } else if (std::strcmp(argv[i], "--cluster-coordinator") == 0 &&
               i + 1 < argc) {
      cluster_ranks = std::atoi(argv[++i]);
      if (cluster_ranks < 1) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--cluster-port") == 0 && i + 1 < argc) {
      const int p = std::atoi(argv[++i]);
      if (p < 0 || p > 65535) return usage(argv[0]);
      cluster_port = static_cast<std::uint16_t>(p);
    } else if (std::strcmp(argv[i], "--cluster-rank") == 0 && i + 1 < argc) {
      cluster_rank = std::atoi(argv[++i]);
      if (cluster_rank < 0) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (cluster_rank < 0 && serve_port >= 0 && !connect_target.empty()) {
    return usage(argv[0]);
  }
  if (cluster_ranks > 0 && (cluster_rank >= 0 || !connect_target.empty())) {
    return usage(argv[0]);
  }

  // ---- Rank worker mode: serve BSP jobs until shutdown -----------------
  if (cluster_rank >= 0) {
    if (connect_target.empty()) {
      std::fprintf(stderr,
                   "--cluster-rank needs --connect HOST:PORT (the "
                   "coordinator address)\n");
      return 2;
    }
    const std::size_t colon = connect_target.rfind(':');
    if (colon == std::string::npos) return usage(argv[0]);
    gems::cluster::RankWorkerOptions wopt;
    wopt.coordinator_host = connect_target.substr(0, colon);
    wopt.coordinator_port = static_cast<std::uint16_t>(
        std::atoi(connect_target.c_str() + colon + 1));
    wopt.rank = static_cast<std::uint32_t>(cluster_rank);
    wopt.store_dir = options.store_dir;  // "" when no --data-dir: no recovery
    wopt.worker_name = "graql_shell-rank" + std::to_string(cluster_rank);
    gems::cluster::RankWorker worker(wopt);
    const gems::Status s = worker.run();
    if (!s.is_ok()) {
      std::fprintf(stderr, "rank %d: %s\n", cluster_rank,
                   s.to_string().c_str());
      return 1;
    }
    return 0;
  }

  // ---- Remote mode: the shell is a pure front-end ----------------------
  std::unique_ptr<gems::net::Client> client;
  std::unique_ptr<gems::server::Database> db;
  std::unique_ptr<Backend> backend;
  if (!connect_target.empty()) {
    const std::size_t colon = connect_target.rfind(':');
    if (colon == std::string::npos) return usage(argv[0]);
    gems::net::ClientOptions copt;
    copt.host = connect_target.substr(0, colon);
    copt.port = static_cast<std::uint16_t>(
        std::atoi(connect_target.c_str() + colon + 1));
    copt.client_name = "graql_shell";
    client = std::make_unique<gems::net::Client>(copt);
    const gems::Status s = client->connect();
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "connected to %s (session %llu)\n",
                 connect_target.c_str(),
                 static_cast<unsigned long long>(client->session_id()));
    backend = std::make_unique<RemoteBackend>(*client);
  } else {
    db = std::make_unique<gems::server::Database>(options);
    if (!db->store_status().is_ok()) {
      std::fprintf(stderr, "%s\n", db->store_status().to_string().c_str());
      return 1;
    }
    if (db->durable() && db->tables().size() > 0) {
      std::fprintf(stderr, "recovered %zu table(s) from %s\n",
                   db->tables().size(), options.store_dir.c_str());
      if (berlin_scale > 0) {
        std::fprintf(stderr,
                     "store already populated; ignoring --berlin %zu\n",
                     berlin_scale);
        berlin_scale = 0;
      }
    }
    if (berlin_scale > 0) {
      auto ddl = db->run_script(gems::bsbm::full_ddl());
      if (!ddl.is_ok()) {
        std::fprintf(stderr, "%s\n", ddl.status().to_string().c_str());
        return 1;
      }
      auto gen = gems::bsbm::generate(
          *db, gems::bsbm::GeneratorConfig::derive(berlin_scale));
      if (!gen.is_ok()) {
        std::fprintf(stderr, "%s\n", gen.status().to_string().c_str());
        return 1;
      }
      std::printf("loaded Berlin dataset: %zu rows total\n",
                  gen->total_rows());
    }
    backend = std::make_unique<LocalBackend>(*db);
  }

  // ---- Cluster coordinator: recruit ranks, then route graph queries ---
  std::unique_ptr<gems::cluster::Coordinator> coordinator;
  if (cluster_ranks > 0) {
    gems::cluster::CoordinatorOptions copt;
    copt.num_ranks = static_cast<std::size_t>(cluster_ranks);
    copt.port = cluster_port;
    coordinator = std::make_unique<gems::cluster::Coordinator>(*db, copt);
    gems::Status s = coordinator->start();
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "cluster coordinator on port %u, waiting for %d "
                 "rank(s)...\n",
                 coordinator->port(), cluster_ranks);
    s = coordinator->wait_for_ranks();
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    coordinator->attach();
    std::fprintf(stderr, "cluster attached: %d rank(s) connected and "
                 "synced\n",
                 cluster_ranks);
  }

  // ---- Serve mode: expose the database on the wire and block ----------
  if (serve_port >= 0) {
    gems::net::ServerOptions sopt;
    sopt.port = static_cast<std::uint16_t>(serve_port);
    sopt.bind_address = "0.0.0.0";
    gems::net::Server server(*db, sopt);
    const gems::Status s = server.start();
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "serving on port %u (send the shutdown verb, e.g. shell "
                 "\\shutdown, to stop)\n",
                 server.port());
    server.wait();
    server.stop();
    std::fprintf(stderr, "%s",
                 gems::metrics::render(server.metrics_snapshot()).c_str());
    return 0;
  }

  gems::relational::ParamMap params;
  bool check_only = false;
  bool explain_only = false;
  std::string buffer;
  std::string line;
  const bool interactive = true;

  auto run_buffer = [&] {
    if (buffer.find_first_not_of(" \t\r\n") == std::string::npos) {
      buffer.clear();
      return;
    }
    if (check_only) {
      check_only = false;
      const gems::Status s = backend->check(buffer, params);
      std::printf("%s\n", s.is_ok() ? "ok" : s.to_string().c_str());
      buffer.clear();
      return;
    }
    if (explain_only) {
      explain_only = false;
      auto plan = backend->explain(buffer, params);
      std::printf("%s\n", plan.is_ok()
                               ? plan.value().c_str()
                               : plan.status().to_string().c_str());
      buffer.clear();
      return;
    }
    auto results = backend->run(buffer, params);
    buffer.clear();
    if (!results.is_ok()) {
      std::printf("error: %s\n", results.status().to_string().c_str());
      return;
    }
    for (const auto& r : results.value()) {
      using Kind = gems::exec::StatementResult::Kind;
      if (r.kind == Kind::kTable && r.table != nullptr &&
          r.into == gems::graql::IntoKind::kNone) {
        std::printf("%s", r.table->to_string(25).c_str());
      } else if (!r.message.empty()) {
        std::printf("%s\n", r.message.c_str());
      }
      if (r.truncated) std::printf("(result truncated by row cap)\n");
    }
  };

  if (interactive) std::printf("graql> ");
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line[0] == '\\') {
      std::istringstream cmd(line.substr(1));
      std::string word;
      cmd >> word;
      if (word == "quit" || word == "q") break;
      if (word == "catalog") {
        auto summary = backend->catalog_summary();
        std::printf("%s", summary.is_ok()
                              ? summary.value().c_str()
                              : (summary.status().to_string() + "\n").c_str());
      } else if (word == "params") {
        for (const auto& [name, value] : params) {
          std::printf("%%%s%% = %s\n", name.c_str(),
                      value.to_string().c_str());
        }
      } else if (word == "set") {
        std::string name;
        cmd >> name;
        std::string rest;
        std::getline(cmd, rest);
        while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());
        auto value = parse_param_value(rest);
        if (value.is_ok()) {
          params[name] = value.value();
        } else {
          std::printf("bad value: %s\n",
                      value.status().to_string().c_str());
        }
      } else if (word == "check") {
        check_only = true;
        std::printf("next statement will only be analyzed\n");
      } else if (word == "lint") {
        std::string path;
        cmd >> path;
        if (path.empty()) {
          std::printf("usage: \\lint FILE\n");
        } else {
          std::ifstream in(path);
          if (!in) {
            std::printf("cannot open %s\n", path.c_str());
          } else {
            // Blank out \-meta-command lines instead of dropping them so
            // every diagnostic's line number matches the file on disk.
            std::string text;
            std::string file_line;
            while (std::getline(in, file_line)) {
              const std::size_t first = file_line.find_first_not_of(" \t");
              if (first != std::string::npos && file_line[first] == '\\') {
                file_line.clear();
              }
              text += file_line;
              text += '\n';
            }
            auto diags = backend->lint(text, params);
            if (!diags.is_ok()) {
              std::printf("%s\n", diags.status().to_string().c_str());
            } else if (diags.value().empty()) {
              std::printf("%s: no problems found\n", path.c_str());
            } else {
              const bool color = ::isatty(STDOUT_FILENO) != 0;
              std::printf("%s", gems::graql::render_diagnostics(
                                    diags.value(), path, color)
                                    .c_str());
            }
          }
        }
      } else if (word == "explain") {
        explain_only = true;
        std::printf("next statement will be explained, not executed\n");
      } else if (word == "stats") {
        std::string prefix;
        cmd >> prefix;
        auto stats = backend->stats();
        std::string out = stats.is_ok()
                              ? gems::metrics::render(*stats, prefix)
                              : stats.status().to_string() + "\n";
        if (out.empty()) out = "no metric name starts with " + prefix + "\n";
        std::printf("%s", out.c_str());
      } else if (word == "checkpoint") {
        const gems::Status s = backend->checkpoint();
        std::printf("%s\n",
                    s.is_ok() ? "checkpoint written" : s.to_string().c_str());
      } else if (word == "shutdown") {
        const gems::Status s = backend->shutdown_server();
        std::printf("%s\n", s.is_ok() ? "server shutting down"
                                      : s.to_string().c_str());
      } else {
        std::printf("unknown command \\%s\n", word.c_str());
      }
      if (interactive) std::printf("graql> ");
      continue;
    }
    // Blank line or trailing ';' submits the buffer.
    const bool submit =
        line.empty() || (!line.empty() && line.back() == ';');
    buffer += line;
    buffer += '\n';
    if (submit) {
      run_buffer();
      if (interactive) std::printf("graql> ");
    }
  }
  run_buffer();
  return 0;
}
