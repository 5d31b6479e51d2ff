// The traced run: replays a workload's request sequence in process, one
// request at a time, and times each layer's public function around the
// calls the server makes for that request. Stage spans are replays of the
// same calls Database::run_ir makes internally (lower, plan, match and
// enumerate are the graph statement's stages inside
// execute_statement_read), so each residual is the measured parent minus
// its replayed children:
//   exec.collect   = execute_statement_read - (lower + plan + match + enumerate)
//   server.other   = run_ir - (decode + meta_catalog + analyze + schedule
//                              + every execute_statement_read)
//                    (the epoch pin, overlay commit and publish)
//   net.overhead   = round trip - (parse + encode + run_ir)
// A residual below -5% of its parent means the replays do not add up to
// the call they model, and the trace is flagged.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <string_view>

#include "exec/enumerate.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "graph/delta.hpp"
#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "mvcc/epoch.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "plan/planner.hpp"
#include "plan/schedule.hpp"
#include "runs.hpp"
#include "storage/csv.hpp"
#include "store/store.hpp"

namespace gems::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxTracedRequests = 500;
/// Share of --seconds the traced replay may take; the untraced replay of
/// the same requests and the ingest probe use the rest.
constexpr double kTracedShare = 0.7;
constexpr std::size_t kProbeBatches = 5;
constexpr double kResidualTolerance = 0.05;

/// Spans kept in memory and written out when the run ends. Each span has
/// a name, start, end, parent span and request id; per-name totals feed
/// the per-layer metrics.
class Tracer {
 public:
  void begin_request(std::uint64_t id) { request_ = id; }

  int open(const char* name, int parent) {
    spans_.push_back({name, now_ns(), 0, parent, request_});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    last_ms_ = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    total_ms_[s.name] += last_ms_;
  }

  /// Runs `f` inside a span and returns its result.
  template <typename F>
  auto span(const char* name, int parent, F&& f) {
    const int id = open(name, parent);
    auto result = f();
    close(id);
    return result;
  }

  /// Duration of the most recently closed span.
  double last_ms() const { return last_ms_; }
  double total_ms(std::string_view name) const {
    auto it = total_ms_.find(name);
    return it == total_ms_.end() ? 0 : it->second;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"request\": " << s.request
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t request;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string_view, double> total_ms_;
  std::uint64_t request_ = 0;
  double last_ms_ = 0;
};

/// Work counts gathered beside the spans.
struct Counts {
  std::uint64_t ir_bytes = 0;
  std::uint64_t match_passes = 0;
  std::uint64_t edge_traversals = 0;
  std::uint64_t candidate_vertices = 0;
  double match_ns = 0;
  std::uint64_t extensions = 0;
  std::uint64_t emitted = 0;
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
  std::vector<double> net_overhead_ms;
  std::map<std::string, std::vector<double>> run_ir_ms_by_query;
};

/// Replays the stages execute_statement_read runs for one graph
/// statement: lower, then per network plan, match and (where the executor
/// enumerates) a counting enumeration.
void replay_graph_stages(Tracer& tr, int parent, Counts& counts,
                         const graql::GraphQueryStmt& q,
                         const mvcc::EpochPin& pin,
                         const relational::ParamMap& params,
                         const exec::CatalogOverlay& overlay) {
  const exec::ExecContext& snap = pin.ctx();
  const exec::SubgraphResolver resolver =
      [&](const std::string& name) -> Result<exec::SubgraphPtr> {
    if (auto it = overlay.subgraphs.find(name); it != overlay.subgraphs.end()) {
      return it->second;
    }
    if (auto it = snap.subgraphs.find(name); it != snap.subgraphs.end()) {
      return it->second;
    }
    return not_found("unknown result subgraph '" + name + "'");
  };
  auto lowered = tr.span("exec.lower", parent, [&] {
    return exec::lower_graph_query(q, snap.graph, resolver, params, *snap.pool);
  });
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  const auto stats = pin.epoch().stats();
  for (const auto& net : lowered->networks) {
    const plan::PathPlan path_plan = tr.span("plan.plan_network", parent, [&] {
      return plan::plan_network(net, snap.graph, *snap.pool, *stats);
    });
    const std::vector<int>* order = path_plan.constraint_order.empty()
                                        ? nullptr
                                        : &path_plan.constraint_order;
    auto match = tr.span("exec.match", parent, [&] {
      return exec::match_network(net, snap.graph, *snap.pool, order,
                                 snap.intra_pool);
    });
    GEMS_CHECK_MSG(match.is_ok(), match.status().to_string().c_str());
    counts.match_ns += tr.last_ms() * 1e6;
    counts.match_passes += match->stats.propagation_passes;
    counts.edge_traversals += match->stats.edge_traversals;
    for (const auto& var : net.vars) {
      for (const auto type : var.types) {
        counts.candidate_vertices += snap.graph.vertex_type(type).num_vertices();
      }
    }
    // The executor enumerates table results, and subgraph results only
    // when the fixpoint alone is not exact.
    if (match->empty() ||
        (q.into == graql::IntoKind::kSubgraph && net.tree_exact)) {
      continue;
    }
    exec::EnumOptions options;
    options.max_rows = snap.max_result_rows;
    options.root_var = path_plan.root_var;
    auto enumerated = tr.span("exec.enumerate", parent, [&] {
      return exec::enumerate_assignments(
          net, snap.graph, *snap.pool, *match, options,
          [](std::span<const graph::VertexRef>, std::span<const graph::EdgeRef>) {
            return true;
          });
    });
    GEMS_CHECK_MSG(enumerated.is_ok(), enumerated.status().to_string().c_str());
    counts.extensions += enumerated->extensions;
    counts.emitted += enumerated->emitted;
  }
}

std::size_t source_rows(const exec::ExecContext& snap,
                        const exec::CatalogOverlay& overlay,
                        const std::string& name) {
  if (auto it = overlay.tables.find(name); it != overlay.tables.end()) {
    return it->second->num_rows();
  }
  auto table = snap.tables.find(name);
  return table.is_ok() ? (*table)->num_rows() : 0;
}

/// The server half of a request as run_ir performs it, one public call
/// at a time: decode, analysis against the catalog, scheduling, and per
/// statement execute_statement_read (graph statements also replay their
/// stages, before or after the real call as `stages_first` says).
bool replay_server_path(Tracer& tr, int root, Counts& counts,
                        server::Database& db, const Request& req,
                        const std::vector<std::uint8_t>& ir, bool stages_first) {
  auto script = tr.span("graql.decode", root, [&] { return graql::decode_script(ir); });
  if (!script.is_ok()) return false;
  auto meta = tr.span("server.meta_catalog", root, [&] { return db.meta_catalog(); });
  const Status analyzed = tr.span("graql.analyze", root, [&] {
    return graql::analyze_script(*script, meta, &req.params);
  });
  if (!analyzed.is_ok()) return false;
  const plan::Schedule schedule =
      tr.span("plan.schedule", root, [&] { return plan::build_schedule(*script); });

  {
    const mvcc::EpochPin pin = db.pin_epoch();
    const exec::ExecContext& snap = pin.ctx();
    exec::CatalogOverlay overlay;
    const exec::ReadView view{&snap, &req.params, &overlay};
    for (const auto& level : schedule.levels) {
      for (const std::size_t i : level) {
        const graql::Statement& stmt = script->statements[i];
        Result<exec::StatementResult> result = internal_error("not run");
        if (const auto* q = std::get_if<graql::GraphQueryStmt>(&stmt)) {
          const int s = tr.open("exec.statement", root);
          if (stages_first) replay_graph_stages(tr, s, counts, *q, pin, req.params, overlay);
          result = tr.span("exec.execute_statement_read", s, [&] {
            return exec::execute_statement_read(stmt, view);
          });
          if (!stages_first) replay_graph_stages(tr, s, counts, *q, pin, req.params, overlay);
          tr.close(s);
        } else {
          if (const auto* t = std::get_if<graql::TableQueryStmt>(&stmt)) {
            counts.rows_in += source_rows(snap, overlay, t->from_table);
          }
          result = tr.span("relational.table_query", root, [&] {
            return exec::execute_statement_read(stmt, view);
          });
          if (result.is_ok() && result->table != nullptr) {
            counts.rows_out += result->table->num_rows();
          }
        }
        if (!result.is_ok()) return false;
        exec::stage_result(*result, overlay);
      }
    }
  }
  return true;
}

/// Traces request `id` through every layer, then checks that run_ir and
/// the wire round trip return the same bytes. False on any failure.
bool trace_request(Tracer& tr, Counts& counts, server::Database& db,
                   net::Client& client, const Request& req, std::uint64_t id) {
  const std::string& text = req.query->text;
  tr.begin_request(id);
  const int root = tr.open("request", -1);
  auto parsed = tr.span("graql.parse", root, [&] { return graql::parse_script(text); });
  const double parse_ms = tr.last_ms();
  if (!parsed.is_ok()) return false;
  const auto ir = tr.span("graql.encode", root, [&] { return graql::encode_script(*parsed); });
  const double encode_ms = tr.last_ms();
  counts.ir_bytes += ir.size();

  // The same work runs three times (replayed server path, run_ir, wire
  // round trip), and whichever runs later finds warmer caches. Rotating
  // the order per request spreads that bias evenly instead of pushing
  // the residuals one way.
  bool replayed = false;
  Result<std::vector<exec::StatementResult>> direct = internal_error("not run");
  Result<std::vector<exec::StatementResult>> remote = internal_error("not run");
  double run_ir_ms = 0;
  double round_trip_ms = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    switch ((id + k) % 3) {
      case 0:
        replayed = replay_server_path(tr, root, counts, db, req, ir, id % 2 == 0);
        break;
      case 1:
        direct = tr.span("server.run_ir", root, [&] { return db.run_ir(ir, req.params); });
        run_ir_ms = tr.last_ms();
        break;
      default:
        remote = tr.span("net.round_trip", root, [&] {
          return client.run_script(text, req.params);
        });
        round_trip_ms = tr.last_ms();
        break;
    }
  }
  tr.close(root);
  counts.run_ir_ms_by_query[req.query->name].push_back(run_ir_ms);
  counts.net_overhead_ms.push_back(round_trip_ms - parse_ms - encode_ms - run_ir_ms);
  return replayed && direct.is_ok() && remote.is_ok() &&
         render(*direct, false) == render(*remote, false);
}

/// Times the ingest path layer by layer on `kProbeBatches` new review
/// batches: each layer's call is replayed on the pinned pre-ingest state,
/// then the real ingest runs through Database::run_script. Returns the
/// number of rows ingested, or an error.
Result<std::size_t> ingest_probe(Tracer& tr, server::Database& db,
                                 const bsbm::GeneratorConfig& data,
                                 std::uint64_t seed, std::uint64_t first_id,
                                 const std::string& dir) {
  const std::size_t base = db.table("Reviews").value()->num_rows();
  const auto batches = write_review_batches(data, base, kProbeBatches, seed, dir);

  // Bench-owned store and epoch manager, so appending and publishing are
  // timed alone.
  StringPool store_pool;
  exec::ExecContext store_ctx;
  store_ctx.pool = &store_pool;
  store::StoreOptions store_options;
  store_options.dir = dir + "/probe_store";
  store_options.wal_fsync = true;
  GEMS_ASSIGN_OR_RETURN(auto probe_store,
                        store::Store::open(store_options, store_ctx));
  mvcc::EpochManager epochs;

  for (std::size_t b = 0; b < batches.size(); ++b) {
    tr.begin_request(first_id + b);
    const int root = tr.open("ingest", -1);
    const std::string script = ingest_script(batches[b]);
    GEMS_ASSIGN_OR_RETURN(graql::Statement stmt, graql::parse_statement(script));
    {
      const mvcc::EpochPin pin = db.pin_epoch();
      const exec::ExecContext& snap = pin.ctx();
      GEMS_ASSIGN_OR_RETURN(storage::TablePtr reviews, snap.tables.find("Reviews"));
      const std::size_t rows_before = reviews->num_rows();
      auto clone = std::make_shared<storage::Table>(*reviews);
      GEMS_ASSIGN_OR_RETURN(storage::CsvIngestStats ingested,
                            tr.span("storage.csv_ingest", root, [&] {
                              return storage::ingest_csv_file(*clone, batches[b]);
                            }));
      storage::TableCatalog tables = snap.tables;
      tables.add_or_replace(clone);
      graph::GraphView graph = snap.graph;
      GEMS_ASSIGN_OR_RETURN(const bool delta, tr.span("graph.delta", root, [&] {
        return graph::extend_graph_for_ingest(
            graph, "Reviews", static_cast<storage::RowIndex>(rows_before),
            snap.vertex_decls, snap.edge_decls, tables, *snap.pool, snap.params);
      }));
      if (!delta) return internal_error("review ingest fell back to a rebuild");
      const exec::MutationEvent event{&stmt, clone.get(), rows_before, ingested.rows};
      GEMS_RETURN_IF_ERROR(tr.span("store.wal_append", root, [&] {
        return probe_store->log_mutation(event);
      }));
    }
    GEMS_RETURN_IF_ERROR(
        tr.span("server.ingest", root, [&] { return db.run_script(script); }).status());
    tr.span("mvcc.publish", root, [&] { return epochs.publish(db.context()); });
    tr.close(root);
  }
  tr.begin_request(first_id + batches.size());
  GEMS_RETURN_IF_ERROR(tr.span("store.checkpoint", -1, [&] { return db.checkpoint(); }));
  return base + batches.size() * kBatchRows;
}

}  // namespace

Report run_trace(const RunConfig& config, const std::string& spans_path) {
  const Workload& w = *config.workload;
  Report report;
  report.mode = "trace";
  const bsbm::GeneratorConfig data = dataset_config(config);

  // Durable for every workload, so the ingest probe can time the WAL, a
  // checkpoint and a reopen; the read path never touches the store.
  server::DatabaseOptions options = server_options(w, "");
  options.store_dir = config.workdir + "/trace_store";
  options.wal_fsync = true;
  options.checkpoint_interval_ms = 0;
  auto made = bsbm::make_populated_database(data, options);
  GEMS_CHECK_MSG(made.is_ok(), made.status().to_string().c_str());
  std::unique_ptr<server::Database> db = std::move(made).value();
  const Status base_checkpoint = db->checkpoint();
  GEMS_CHECK_MSG(base_checkpoint.is_ok(), base_checkpoint.to_string().c_str());

  net::ServerOptions server_opts;
  server_opts.num_workers = 4;
  net::Server server(*db, server_opts);
  GEMS_CHECK(server.start().is_ok());
  net::ClientOptions client_opts;
  client_opts.port = server.port();
  client_opts.client_name = "bench-e2e-trace";
  net::Client client(client_opts);
  GEMS_CHECK(client.connect().is_ok());

  // Warm-up: one pass over the mix, untraced.
  RequestStream warm(w, data, config.seed, 0);
  for (std::size_t i = 0; i < w.mix.size(); ++i) {
    const Request req = warm.next();
    GEMS_CHECK(db->run_script(req.query->text, req.params).is_ok());
  }

  Tracer tr;
  Counts counts;
  RequestStream stream(w, data, config.seed, 0);
  std::vector<Request> traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds * kTracedShare));
  while (traced.size() < kMaxTracedRequests && Clock::now() < deadline) {
    traced.push_back(stream.next());
    ++report.attempted;
    if (!trace_request(tr, counts, *db, client, traced.back(), traced.size() - 1)) {
      ++report.failed;
      report.mismatch(traced.back().query->name + " failed or differs over the wire");
    }
  }

  double untraced_ms = 0;
  for (const auto& req : traced) {
    const auto t0 = Clock::now();
    const bool ok = db->run_script(req.query->text, req.params).is_ok();
    untraced_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!ok) report.mismatch("untraced replay failed");
  }

  auto probed = ingest_probe(tr, *db, data, config.seed, traced.size(), config.workdir);
  ++report.attempted;
  if (!probed.is_ok()) {
    ++report.failed;
    report.mismatch("ingest probe: " + probed.status().to_string());
  }
  client.disconnect();
  server.stop();
  db.reset();

  tr.begin_request(traced.size() + kProbeBatches + 1);
  const int reopen = tr.open("store.recover", -1);
  server::Database reopened(options);
  tr.close(reopen);
  const double recover_ms = tr.last_ms();
  auto reviews = reopened.table("Reviews");
  if (!reopened.store_status().is_ok() || !reviews.is_ok() || !probed.is_ok() ||
      (*reviews)->num_rows() != *probed) {
    report.mismatch("reopened store does not hold every ingested review");
  }
  tr.write(spans_path);

  // Per-request means over the traced requests (ingest layers: per batch).
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  const std::size_t nreq = traced.size();
  auto per_request = [&](const std::string& metric, double total, const char* unit) {
    report.add(metric, total / n, unit, nreq);
  };
  auto t = [&](const char* span) { return tr.total_ms(span); };
  const double statements_ms = t("exec.execute_statement_read");
  const double collect_ms = statements_ms - t("exec.lower") - t("plan.plan_network") -
                            t("exec.match") - t("exec.enumerate");
  const double other_ms = t("server.run_ir") - t("graql.decode") -
                          t("server.meta_catalog") - t("graql.analyze") -
                          t("plan.schedule") - statements_ms -
                          t("relational.table_query");
  double overhead_total = 0;
  for (const double v : counts.net_overhead_ms) overhead_total += v;
  const bool flagged = collect_ms < -kResidualTolerance * statements_ms ||
                       other_ms < -kResidualTolerance * t("server.run_ir") ||
                       overhead_total < -kResidualTolerance * t("net.round_trip");
  if (flagged) {
    std::cerr << "bench_berlin_e2e: trace flagged: a residual is negative by more "
                 "than 5% of its parent\n";
  }

  per_request("graql.parse.ms", t("graql.parse"), "ms");
  per_request("graql.ir.ms", t("graql.encode") + t("graql.decode"), "ms");
  per_request("graql.analyze.ms", t("graql.analyze"), "ms");
  per_request("graql.ir_bytes", static_cast<double>(counts.ir_bytes), "B");
  per_request("server.meta_catalog.ms", t("server.meta_catalog"), "ms");
  per_request("server.other.ms", other_ms, "ms");
  per_request("server.run_ir.ms", t("server.run_ir"), "ms");
  per_request("plan.schedule.ms", t("plan.schedule"), "ms");
  per_request("plan.plan_network.ms", t("plan.plan_network"), "ms");
  report.add("net.overhead.ms", quantile(counts.net_overhead_ms, 0.5), "ms", nreq);
  per_request("exec.lower.ms", t("exec.lower"), "ms");
  per_request("exec.match.ms", t("exec.match"), "ms");
  per_request("exec.match.passes", static_cast<double>(counts.match_passes), "count");
  per_request("exec.match.edge_traversals",
              static_cast<double>(counts.edge_traversals), "count");
  report.add("exec.match.ns_per_vertex",
             counts.match_ns /
                 static_cast<double>(std::max<std::uint64_t>(counts.candidate_vertices, 1)),
             "ns", counts.candidate_vertices);
  report.add("exec.match.ns_per_edge",
             counts.match_ns /
                 static_cast<double>(std::max<std::uint64_t>(counts.edge_traversals, 1)),
             "ns", counts.edge_traversals);
  per_request("exec.enumerate.ms", t("exec.enumerate"), "ms");
  per_request("exec.enumerate.extensions", static_cast<double>(counts.extensions),
              "count");
  report.add("exec.enumerate.yield",
             static_cast<double>(counts.emitted) /
                 static_cast<double>(std::max<std::uint64_t>(counts.extensions, 1)),
             "ratio", counts.extensions);
  per_request("exec.collect.ms", collect_ms, "ms");
  per_request("relational.table_query.ms", t("relational.table_query"), "ms");
  per_request("relational.rows_in", static_cast<double>(counts.rows_in), "count");
  per_request("relational.rows_out", static_cast<double>(counts.rows_out), "count");
  const double batches = static_cast<double>(kProbeBatches);
  report.add("storage.csv_ingest.ms", t("storage.csv_ingest") / batches, "ms", kProbeBatches);
  report.add("graph.delta.ms", t("graph.delta") / batches, "ms", kProbeBatches);
  report.add("server.ingest.ms", t("server.ingest") / batches, "ms", kProbeBatches);
  report.add("store.wal_append.ms", t("store.wal_append") / batches, "ms", kProbeBatches);
  report.add("store.checkpoint.ms", t("store.checkpoint"), "ms", 1);
  report.add("store.recover.ms", recover_ms, "ms", 1);
  report.add("mvcc.publish.ms", t("mvcc.publish") / batches, "ms", kProbeBatches);
  report.add("trace.overhead_ratio",
             (t("graql.parse") + t("graql.encode") + t("server.run_ir")) /
                 std::max(untraced_ms, 1e-9),
             "ratio", nreq);
  report.add("trace.residual_flagged", flagged ? 1 : 0, "count", 1);
  for (auto& [query, samples] : counts.run_ir_ms_by_query) {
    report.add("query." + query + ".ms", mean(samples), "ms", samples.size());
  }
  report.context.emplace_back("traced_requests", std::to_string(nreq));
  report.context.emplace_back("spans", json_string(spans_path));
  return report;
}

}  // namespace gems::bench_e2e
