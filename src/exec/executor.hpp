// Statement execution over a live database state: DDL, ingest, graph
// queries (lower -> match -> enumerate -> materialize) and relational
// queries (the Table I operator pipeline). The GEMS server (src/server)
// wraps this with the catalog, static analysis and scheduling.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "exec/matcher.hpp"
#include "exec/network.hpp"
#include "exec/subgraph.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graql/ast.hpp"
#include "common/thread_pool.hpp"
#include "relational/batch.hpp"
#include "storage/catalog.hpp"

namespace gems::exec {

/// Notification of a successful base-state mutation, fired for the
/// durability layer (src/store) right after the statement applies and
/// before its result is returned. `statement` is always set; the row
/// fields describe the appended range for ingest statements (the write-
/// ahead log records the parsed rows themselves, so replay does not
/// depend on the CSV file still existing).
struct MutationEvent {
  const graql::Statement* statement = nullptr;
  const storage::Table* table = nullptr;  // ingest target, else nullptr
  std::size_t first_row = 0;              // ingest: first appended row
  std::size_t num_rows = 0;               // ingest: appended row count
};

/// Mutable database state shared by all statements of a session.
struct ExecContext {
  storage::TableCatalog tables;
  graph::GraphView graph;
  StringPool* pool = nullptr;  // database-wide interner (required)
  std::map<std::string, SubgraphPtr> subgraphs;
  // Read only by execute_statement's query branch, that is by direct
  // callers and tests; a script's statements take its own params.
  relational::ParamMap params;

  /// Declarations, retained so ingest can rebuild the derived graph
  /// (paper Sec. II-A2: "Data ingest triggers ... the generation of
  /// associated vertex and edge instances derived from the table").
  std::vector<graph::VertexDecl> vertex_decls;
  std::vector<graph::EdgeDecl> edge_decls;

  /// Base directory prepended to relative ingest paths.
  std::string data_dir;

  /// Monotone counter bumped whenever the graph's instances change (DDL,
  /// ingest rebuilds). Lets planners cache per-graph statistics.
  std::uint64_t graph_version = 0;

  /// Monotone counter bumped only when existing instance numbering may
  /// have changed (full rebuild_graph(), or an ingest delta that built an
  /// edge type in full). Other incremental ingests and
  /// type-appending DDL preserve prior vertex/edge indices, so results
  /// computed against an older graph (subgraph bitsets, overlay commits)
  /// stay valid as long as this counter is unchanged.
  std::uint64_t renumber_version = 0;

  /// Safety cap for graph-query row enumeration (0 = unlimited).
  std::uint64_t max_result_rows = 0;

  /// Intra-node worker pool for the graph rebuild (nullptr = serial). A
  /// query matches and scans on its own thread (DESIGN.md §5e).
  ThreadPool* intra_pool = nullptr;

  /// Matcher activity counters, owned by the database (nullptr = not
  /// recorded). Copies of the context (epochs, scheduler copies) share it.
  MatcherMetrics* matcher_metrics = nullptr;

  /// Query planner hook (paper Sec. III-B): returns the pivot variable and
  /// propagation order for a lowered network. The server layer always
  /// installs one (src/plan provides the implementation); an empty hook
  /// runs lexical order, which tests use as the reference for planned
  /// results.
  std::function<NetworkPlan(const ConstraintNetwork&)> planner;

  /// Optional distributed-matcher hook (src/cluster): when set, every
  /// graph-query network is offered to the cluster coordinator before the
  /// local matcher runs. kUnimplemented means "not distributable, run it
  /// locally"; any other error fails the statement (kUnavailable is the
  /// typed retryable error when a rank is down mid-query). `network_index`
  /// identifies the or-group so rank replicas can lower the same statement
  /// and pick the same network. `ctx` is the context the query executes
  /// against — with gems::mvcc that is a pinned epoch's immutable
  /// snapshot, which the coordinator encodes (lock-free) to sync rank
  /// replicas, so distributed and local results come from the same state.
  std::function<Result<MatchResult>(const graql::GraphQueryStmt& stmt,
                                    std::size_t network_index,
                                    const ConstraintNetwork& net,
                                    const relational::ParamMap& params,
                                    const ExecContext& ctx)>
      dist_matcher;

  /// gems::mvcc: observation hook for the ingest maintenance path —
  /// called with (was_delta, elapsed_ns, folds) after each ingest's graph
  /// maintenance so the database can account delta vs. rebuild cost and
  /// the delta's folds (zero after a rebuild).
  std::function<void(bool, std::uint64_t, const graph::DeltaFolds&)>
      on_graph_maintenance;

  /// Durability hook (src/store): invoked after each successful DDL or
  /// ingest mutation. A failing hook fails the statement — the mutation
  /// is already applied in memory, so the caller must treat the store as
  /// broken (fail-stop) rather than continue with a diverged log. Unset
  /// during recovery replay so replayed statements are not re-logged.
  std::function<Status(const MutationEvent&)> on_mutation;

  /// Rebuilds all vertex/edge types from their declarations
  /// (graph::build_graph, fanned out over intra_pool when there is one).
  /// Invalidates named subgraphs, which reference the old instance
  /// numbering. Must not run on an intra_pool worker.
  Status rebuild_graph();

  /// Graph maintenance after rows [first_new_row, end) were appended to
  /// `table` (paper Sec. II-A2: ingest generates the derived vertex and
  /// edge instances). Extends the graph by the delta
  /// (graph::extend_graph_for_ingest), which keeps instance numbering and
  /// so pads named subgraphs to the grown types, and falls back to
  /// rebuild_graph() when the delta is unsound (a one-to-one key
  /// collapse). Either way the graph is build_graph()'s over the
  /// declarations and tables, which is what recovery builds.
  Status maintain_graph_after_ingest(const std::string& table,
                                     storage::RowIndex first_new_row);
};

struct StatementResult {
  enum class Kind { kNone, kTable, kSubgraph };
  Kind kind = Kind::kNone;
  storage::TablePtr table;      // kTable (also set for un-named results)
  SubgraphPtr subgraph;         // kSubgraph
  std::string message;          // human-readable outcome ("ingested 42 rows")
  bool truncated = false;       // row cap hit
  graql::IntoKind into = graql::IntoKind::kNone;  // result registration
  std::string into_name;
};

/// Script-local staging area for `into table` / `into subgraph` results:
/// instead of registering in the shared catalog mid-statement, results
/// land here; later statements of the same script resolve names against
/// the overlay *before* the shared catalog (serial-script semantics). A
/// read-only script's overlay is published whole under brief exclusive
/// access once the script completes, so other sessions never observe a
/// half-committed catalog; a writer script commits it after each level.
struct CatalogOverlay {
  std::map<std::string, storage::TablePtr> tables;
  std::map<std::string, SubgraphPtr> subgraphs;

  bool empty() const { return tables.empty() && subgraphs.empty(); }
};

/// Const read-view over a shared ExecContext — every query statement
/// executes through this, so the type system enforces that concurrent
/// statements cannot mutate the shared state (catalog registrations, bound
/// params, graph rebuilds all need the mutable ExecContext, which only
/// DDL and ingest see). `params` are per-script (never written into
/// the shared context); `overlay` carries this script's own staged
/// results.
struct ReadView {
  const ExecContext* base = nullptr;
  const relational::ParamMap* params = nullptr;
  const CatalogOverlay* overlay = nullptr;
};

/// Stages a result in a script-local overlay. No-op for results without
/// an `into` clause.
void stage_result(const StatementResult& result, CatalogOverlay& overlay);

/// Publishes a script's staged results into the shared catalog. The
/// caller must hold exclusive access.
void commit_overlay(const CatalogOverlay& overlay, ExecContext& ctx);

/// Executes one statement against a live context. DDL and ingest mutate
/// it in place; queries and `output` run through execute_statement_read
/// and register their `into` result in `ctx`.
Result<StatementResult> execute_statement(const graql::Statement& stmt,
                                          ExecContext& ctx);

/// Query and `output` execution: never mutates the context. `into`
/// results are returned, not registered; the caller stages them. DDL and
/// ingest statements return kInternal: they need the mutable context that
/// only execute_statement sees.
Result<StatementResult> execute_statement_read(const graql::Statement& stmt,
                                               const ReadView& view);

}  // namespace gems::exec
