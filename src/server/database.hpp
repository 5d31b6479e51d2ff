// The GEMS database facade (paper Sec. III): ties together the three
// system components —
//   1. clients (Session / the graql_shell example) submit GraQL text,
//   2. the server parses it, statically checks it against the metadata
//      catalog (Sec. III-A), and compiles it to the binary IR,
//   3. the "backend" decodes the IR, plans (Sec. III-B) and executes it
//      over the in-memory tables and graph views.
//
// In this reproduction front-end and backend live in one process, but the
// hand-off genuinely goes through the serialized IR, so splitting them
// across a wire needs no query-path changes.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <thread>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "exec/executor.hpp"
#include "graql/analyzer.hpp"
#include "mvcc/epoch.hpp"
#include "plan/schedule.hpp"
#include "plan/stats.hpp"
#include "server/access.hpp"
#include "store/store.hpp"

namespace gems::server {

struct DatabaseOptions {
  /// Directory prepended to relative `ingest` paths.
  std::string data_dir;
  /// Row cap for graph-query results (0 = unlimited).
  std::uint64_t max_result_rows = 0;
  /// Intra-node worker threads for the graph rebuild (0 = serial). A
  /// query matches and scans on its own thread (DESIGN.md §5e).
  std::size_t intra_node_threads = 0;

  /// Persistent store directory (gems::store). Empty = in-memory only.
  /// When set, opening the database recovers the directory's snapshot +
  /// WAL, every DDL/ingest statement is write-ahead logged, and
  /// checkpoint() snapshots the live state. If the directory holds a
  /// corrupt snapshot the database is fail-stop: every script returns the
  /// open error (see store_status()) instead of silently running
  /// non-durably over partial state.
  std::string store_dir;
  /// fsync the WAL on every logged mutation (see StoreOptions::wal_fsync).
  bool wal_fsync = true;
  /// Background checkpoint period in milliseconds (0 = only explicit
  /// checkpoint() calls). The background thread pins the current epoch
  /// under a brief exclusive window (a statement boundary) and encodes
  /// the snapshot outside every lock, so checkpoints never observe a
  /// half-applied script and never stall readers or writers.
  std::uint64_t checkpoint_interval_ms = 0;
};

/// Catalog entry sizes, as the GEMS server's metadata repository reports
/// them ("updated information on the sizes of those objects").
struct CatalogEntry {
  enum class Kind { kTable, kVertexType, kEdgeType, kSubgraph };
  Kind kind;
  std::string name;
  std::size_t instances = 0;   // rows / vertices / edges
  std::size_t byte_size = 0;   // resident footprint (0 for subgraphs)
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses, checks, compiles, schedules and executes a whole script.
  /// `params` bind %placeholders%. Statements execute in dependence order;
  /// results are returned in statement order.
  Result<std::vector<exec::StatementResult>> run_script(
      const std::string& text, const relational::ParamMap& params = {});

  /// Runs a single statement.
  Result<exec::StatementResult> run_statement(
      const std::string& text, const relational::ParamMap& params = {});

  /// Runs a pre-compiled binary IR blob (the wire hand-off, paper
  /// Sec. III): decode -> static analysis -> schedule -> execute. This is
  /// what `net::Server` calls for remote clients, which parse and encode
  /// locally and ship only the IR.
  Result<std::vector<exec::StatementResult>> run_ir(
      std::span<const std::uint8_t> ir,
      const relational::ParamMap& params = {});

  /// Front-end static analysis only (no execution). Fail-stop: the first
  /// problem as a bare Status. Kept for callers that only need ok/err;
  /// `check` below returns the full structured list.
  Status check_script(const std::string& text,
                      const relational::ParamMap* params = nullptr) const;

  /// Multi-error static analysis: every lex, parse, and semantic problem
  /// in the script, with source spans and stable GQLxxxx codes (the
  /// shell's `\lint`). Lex/parse problems are diagnostics, not a failed
  /// Result. Non-const: pass 4 (closure cost) consults the cached degree
  /// statistics.
  Result<std::vector<graql::Diagnostic>> check(
      const std::string& text,
      const relational::ParamMap* params = nullptr);

  /// Multi-error static analysis of a pre-compiled IR blob (what the net
  /// `check` verb calls). Fails only when the blob itself is undecodable.
  Result<std::vector<graql::Diagnostic>> check_ir(
      std::span<const std::uint8_t> ir,
      const relational::ParamMap* params = nullptr);

  /// Human-readable query plan (Sec. III-B) for a script, without
  /// executing it: per-statement variable cardinality estimates, the
  /// chosen pivot and propagation order, and the multi-statement schedule.
  Result<std::string> explain(const std::string& text,
                              const relational::ParamMap& params = {});

  /// `explain` for a pre-compiled IR blob.
  Result<std::string> explain_ir(std::span<const std::uint8_t> ir,
                                 const relational::ParamMap& params = {});

  // ---- Introspection --------------------------------------------------
  // These accessors hand out references into the *live* context without
  // holding the access guard: they exist for single-threaded tooling
  // (benchmark generators, test fixtures) that owns the database outright.
  // Concurrent readers must use the epoch-pinned paths (pin_epoch(),
  // catalog(), meta_catalog()) instead — hence the explicit opt-out from
  // the analysis rather than a GEMS_REQUIRES(access_) they could not
  // satisfy.
  const storage::TableCatalog& tables() const
      GEMS_NO_THREAD_SAFETY_ANALYSIS {
    return ctx_.tables;
  }
  const graph::GraphView& graph() const GEMS_NO_THREAD_SAFETY_ANALYSIS {
    return ctx_.graph;
  }
  Result<storage::TablePtr> table(const std::string& name) const
      GEMS_NO_THREAD_SAFETY_ANALYSIS {
    return ctx_.tables.find(name);
  }
  Result<exec::SubgraphPtr> subgraph(const std::string& name) const;
  StringPool& pool() { return pool_; }
  exec::ExecContext& context() GEMS_NO_THREAD_SAFETY_ANALYSIS {
    return ctx_;
  }

  /// All catalog objects with sizes, sorted by name within kind.
  std::vector<CatalogEntry> catalog() const;

  /// Human-readable catalog dump.
  std::string catalog_summary() const;

  /// Snapshot of the live state as an analyzer catalog (the front-end's
  /// metadata mirror).
  graql::MetaCatalog meta_catalog() const;

  /// Graph statistics over the *live* context (Sec. III-B), cached until
  /// DDL/ingest changes the instance sets. Used by the writer-path
  /// planner; the caller must hold exclusive access (compiler-enforced
  /// under clang; closures that the analysis cannot see through call
  /// access_.assert_exclusive_held() first). Read paths use the pinned
  /// epoch's memoized stats (GraphEpoch::stats()) instead.
  std::shared_ptr<const plan::GraphStats> cached_stats()
      GEMS_REQUIRES(access_);

  // ---- Durability (gems::store) ---------------------------------------
  /// True when the database runs over a persistent store.
  bool durable() const { return store_ != nullptr; }

  /// Error from opening the store, or from a WAL append that diverged the
  /// log from memory. Non-OK means fail-stop: run_script returns this.
  Status store_status() const;

  /// Snapshots the current state and rotates the WAL. Pins the current
  /// epoch under a brief exclusive window, then encodes the image outside
  /// all locks (writers keep running). Fails when the database has no
  /// store. Callers must not already hold the access guard (the capture
  /// window acquires it).
  Status checkpoint() GEMS_EXCLUDES(access_);

  // ---- Observability (common/metrics.hpp) -------------------------------
  /// Every metric of this database, sorted by name: its own registry
  /// (writer lock, matcher, ingest maintenance, resident sizes, an
  /// attached cluster) merged with the epoch chain's and the store's.
  /// Pins the current epoch briefly to size its vertex key indices.
  metrics::Snapshot metrics_snapshot() const;

  /// The database's own registry. An attached cluster coordinator
  /// registers its `cluster.*` metrics here.
  metrics::Registry& metrics() { return metrics_; }

  /// Pins the current epoch (RAII). Test and tooling hook: the returned
  /// pin keeps that database state alive and byte-stable across any
  /// number of concurrent publications.
  mvcc::EpochPin pin_epoch() const { return epochs_.pin(); }

  /// Re-publishes the live context as a fresh epoch under brief exclusive
  /// access. Call after mutating `context()` directly (benchmark
  /// generators do); scripts publish automatically.
  void refresh_epoch();

  // ---- Cluster attachment ----------------------------------------------
  /// Deterministic image of a pinned epoch (store snapshot encoding) plus
  /// its graph version. The cluster coordinator uses this to prime rank
  /// state before any script runs; zero coordination with running
  /// scripts — safe to call from any thread.
  std::vector<std::uint8_t> snapshot_bytes(
      std::uint64_t* graph_version = nullptr) const;

 private:
  /// Shared back half of run_script / run_ir: analyze, schedule and
  /// execute an already-parsed script through plan::run_scheduled. A
  /// read-only script (plan::script_is_read_only) runs against a pinned
  /// epoch with no lock held, and its `into` results are folded into a
  /// fresh epoch under brief exclusive access at the end. A mutating
  /// script holds the writer lock and runs on the live context.
  Result<std::vector<exec::StatementResult>> run_parsed(
      graql::Script script, const relational::ParamMap& params);

  /// Shared body of explain / explain_ir over a parsed+analyzed script.
  Result<std::string> explain_parsed(const graql::Script& script,
                                     const relational::ParamMap& params);

  /// Shared back half of check / check_ir: runs the multi-pass analyzer
  /// over a parsed script with degree statistics wired in for pass 4.
  void check_parsed(const graql::Script& script,
                    graql::DiagnosticEngine& diags,
                    const relational::ParamMap* params);

  /// Bodies of meta_catalog() / catalog() over an explicit context —
  /// either a pinned epoch's (read paths) or the live ctx_ (the exclusive
  /// writer path).
  graql::MetaCatalog meta_catalog_from(const exec::ExecContext& ctx) const;
  std::vector<CatalogEntry> catalog_from(const exec::ExecContext& ctx) const;

  DatabaseOptions options_;
  StringPool pool_;

  /// Declared before everything that registers in it (access_, the
  /// matcher metrics, the ingest hook). Its locks are leaves: recording
  /// and snapshotting never acquire another database lock.
  metrics::Registry metrics_;
  exec::MatcherMetrics matcher_metrics_{metrics_};
  // Resident sizes, read from the pool and the current epoch by
  // metrics_snapshot().
  metrics::Gauge& pool_strings_ = metrics_.gauge("storage.pool.strings");
  metrics::Gauge& pool_bytes_ = metrics_.gauge("storage.pool.bytes");
  metrics::Gauge& table_bytes_ = metrics_.gauge("storage.tables.bytes");
  metrics::Gauge& key_index_bytes_ = metrics_.gauge("graph.key_index.bytes");
  metrics::Gauge& csr_bytes_ = metrics_.gauge("graph.csr.bytes");
  metrics::Gauge& csr_tail_edges_ = metrics_.gauge("graph.csr.tail_edges");
  metrics::Gauge& endpoint_bytes_ = metrics_.gauge("graph.endpoints.bytes");
  // Process-wide: pages large_array_resource() and the live scratch
  // arenas have mapped (DESIGN.md §5m, §5n).
  metrics::Gauge& mapped_bytes_ = metrics_.gauge("memory.mapped.bytes");
  metrics::Gauge& scratch_bytes_ = metrics_.gauge("memory.scratch.bytes");

  // ---- Lock hierarchy (DESIGN.md §5j) ----------------------------------
  // checkpoint_serial_mutex_ > access_ > stats_mutex_ > wal_mutex_ >
  // store_status_mutex_. The GEMS_ACQUIRED_BEFORE chain below encodes the
  // order: under clang -Wthread-safety-beta an inversion is a compile
  // error, not a deadlock in production.

  /// Serializes whole checkpoints against each other: two interleaved
  /// capture/encode/finish sequences could rotate the WAL on a stale
  /// sequence number. Taken before (outside) the access guard.
  sync::Mutex checkpoint_serial_mutex_ GEMS_ACQUIRED_BEFORE(access_);

  /// The writer lock (see access.hpp): mutating scripts, overlay commits
  /// and checkpoint capture windows hold it. Read-only scripts never
  /// acquire it — they pin an epoch (epochs_) and execute against that
  /// immutable snapshot, so writers never block readers and readers never
  /// block writers beyond the brief publication window. Outermost of the
  /// database's per-statement locks.
  mutable AccessGuard access_ GEMS_ACQUIRED_BEFORE(stats_mutex_, wal_mutex_);

  /// Live execution context: tables, graph, subgraphs, bound params.
  /// Mutated only under exclusive access; read paths never touch it (they
  /// pin an epoch). The raw accessors above opt out of the analysis for
  /// single-threaded tooling.
  exec::ExecContext ctx_ GEMS_GUARDED_BY(access_);
  std::unique_ptr<ThreadPool> intra_pool_;  // for the graph rebuild

  mutable sync::Mutex stats_mutex_ GEMS_ACQUIRED_BEFORE(wal_mutex_);
  std::shared_ptr<const plan::GraphStats> stats_
      GEMS_GUARDED_BY(stats_mutex_);
  std::uint64_t stats_version_ GEMS_GUARDED_BY(stats_mutex_) = ~0ull;

  /// gems::mvcc epoch chain: every mutating script (and overlay commit)
  /// ends by publishing ctx_ as a new immutable epoch; every read path
  /// pins the current one. `mutable` so const introspection can pin.
  mutable mvcc::EpochManager epochs_;

  std::unique_ptr<store::Store> store_;
  /// Sole owner of store_status_: the WAL hook writes it (nested under
  /// wal_mutex_) while pinned-epoch readers poll it without holding any
  /// access lock — store_status_mutex_ is the one capability both sides
  /// go through.
  mutable sync::Mutex store_status_mutex_;
  Status store_status_ GEMS_GUARDED_BY(store_status_mutex_);
  /// Serializes WAL appends from parallel statements.
  sync::Mutex wal_mutex_ GEMS_ACQUIRED_BEFORE(store_status_mutex_);

  std::thread checkpoint_thread_;
  /// Guards only the background thread's stop flag; disjoint from the
  /// chain above (the thread drops it around the checkpoint() call).
  sync::Mutex checkpoint_mutex_;
  sync::CondVar checkpoint_cv_;
  bool stop_checkpoint_ GEMS_GUARDED_BY(checkpoint_mutex_) = false;
};

/// A client session: per-session parameters layered over the database
/// (paper Sec. III component 1).
class Session {
 public:
  explicit Session(Database& db) : db_(db) {}

  void set_param(const std::string& name, storage::Value value) {
    params_[name] = std::move(value);
  }
  void clear_params() { params_.clear(); }

  Result<std::vector<exec::StatementResult>> run(const std::string& text) {
    return db_.run_script(text, params_);
  }

 private:
  Database& db_;
  relational::ParamMap params_;
};

}  // namespace gems::server
