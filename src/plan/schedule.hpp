// Multi-statement GraQL scheduling & planning (paper Sec. III-B1): "given
// a multistatement GraQL script Ω = q1..qn, and the explicit
// representation of outputs and inputs for each query via the use of the
// 'into subgraph' and 'into table' expressions, we can build a
// multi-statement dependence representation" allowing independent
// statements to execute in parallel. The levels below are that
// representation; run_scheduled walks them in order on the request's
// own thread.
//
// DDL and ingest statements act as barriers (they are "atomic with
// respect to subsequent query commands", Sec. II-A2/III).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "exec/executor.hpp"
#include "graql/ast.hpp"

namespace gems::plan {

/// Read/write sets of one statement over the named-object space (tables,
/// subgraphs, graph element types), plus the files an `output` writes — a
/// namespace of their own, so no catalog name can collide with a path.
struct StatementIo {
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::vector<std::string> file_writes;
  bool barrier = false;  // DDL / ingest: serializes with everything
};

StatementIo analyze_io(const graql::Statement& stmt);

/// Execution levels: statements within a level have no
/// dependencies on each other; level i+1 may depend on levels <= i.
/// Statement order within a level preserves script order.
struct Schedule {
  std::vector<std::vector<std::size_t>> levels;

  std::size_t num_statements() const {
    std::size_t n = 0;
    for (const auto& l : levels) n += l.size();
    return n;
  }
  std::size_t max_width() const {
    std::size_t w = 0;
    for (const auto& l : levels) w = std::max(w, l.size());
    return w;
  }
};

/// Builds the dependence schedule. RAW, WAR and WAW conflicts all order
/// statements (two `output`s to one file are a WAW); barriers get
/// singleton levels.
Schedule build_schedule(const graql::Script& script);

/// True when no statement of the script is a DDL/ingest barrier — such
/// scripts never mutate the shared database state (their `into` results
/// are script-local until committed) and run concurrently against a
/// pinned epoch without the writer lock (server::AccessGuard). The
/// classification reuses analyze_io so it cannot drift from the
/// scheduler's barrier notion.
bool script_is_read_only(const graql::Script& script);

/// Executes a script per `schedule` on the calling thread, level by level
/// and each level in script order. Every query and `output` statement runs
/// through exec::execute_statement_read against `ctx` with the script's
/// own `params`, and its `into` result is staged in `overlay` as soon as
/// it succeeds, where later statements find it before the catalog. The
/// first failure stops the script: no later statement runs, not even one
/// of the same level.
///
/// `writer` is null for a read-only script (script_is_read_only): `ctx`
/// is then typically a pinned epoch's, it is never mutated, and the
/// caller publishes `overlay` when the script succeeds. A script that
/// holds the writer lock passes the live context as both `ctx` and
/// `writer`: DDL and ingest (always singleton levels) run through
/// exec::execute_statement on it, and the overlay is committed into it
/// after each level and before an error returns, so every statement that
/// ran before the first failure stays applied.
Result<std::vector<exec::StatementResult>> run_scheduled(
    const graql::Script& script, const Schedule& schedule,
    const exec::ExecContext& ctx, const relational::ParamMap& params,
    exec::CatalogOverlay& overlay, exec::ExecContext* writer = nullptr);

}  // namespace gems::plan
