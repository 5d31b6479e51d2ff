// Static query analysis (paper Sec. III-A): GraQL scripts are checked for
// correctness on the GEMS front-end server using only the metadata catalog
// — no data access. Checks include:
//   * type errors ("comparing a date to a floating-point number"),
//   * entity-kind errors ("a table name should be used when a table is
//     required, rather than a vertex type name"),
//   * path-query formulation errors (edge direction/endpoint mismatches,
//     undefined labels, conditions on variant steps),
//   * statically-empty queries (no edge type connects two vertex types),
//   * select-target resolution and output-schema inference.
//
// The analyzer is multi-error: every check reports into a DiagnosticEngine
// (graql/diag.hpp) with a source span and a stable GQLxxxx code, and
// analysis continues past errors so one `check` call surfaces every
// problem in the script. On top of the legacy checks it runs five
// semantic passes:
//   1. empty type-intersection detection for `[ ]` steps and closure
//      bodies that cannot chain (GQL004x),
//   2. constant folding of step/where conditions, through the same kernels
//      execution runs, to flag always-false and always-true predicates
//      (GQL005x),
//   3. unbound/duplicate/unused `def`/`foreach` label analysis (GQL006x),
//   4. regex-closure cost lint over catalog degree statistics, fed
//      through AnalyzeOptions::edge_stats (GQL0070),
//   5. cross-statement dependence validation: use-before-ingest and
//      results overwritten before any read (GQL008x).
//
// Expressions are typed by relational/expr_rules.hpp, the binder's rules.
//
// The analyzer maintains a MetaCatalog that evolves as the script's DDL
// and `into` clauses introduce new objects, so later statements can
// reference earlier results (Fig. 12). A statement's catalog effects are
// applied only when it produced no errors; later statements may then see
// follow-on errors, which is the conventional cascade behavior.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "graql/ast.hpp"
#include "graql/diag.hpp"
#include "relational/bound_expr.hpp"
#include "storage/schema.hpp"

namespace gems::graql {

struct VertexMeta {
  std::string source_table;
  storage::Schema attr_schema;        // full source schema (visibility of
                                      // non-key attrs is a dynamic check)
  std::vector<std::string> key_columns;
};

struct EdgeMeta {
  std::string source_vertex;
  std::string target_vertex;
  std::optional<storage::Schema> attr_schema;  // nullopt: no attributes
  std::vector<std::string> assoc_tables;       // `from table` clause
};

/// Per-step metadata of a subgraph result, so `res.V` seeding can be
/// checked statically.
struct SubgraphMeta {
  std::set<std::string> vertex_steps;  // step names selectable for seeding
};

/// Schema-only catalog mirror of the GEMS server's metadata repository.
class MetaCatalog {
 public:
  Status add_table(const std::string& name, storage::Schema schema);

  /// Registers or replaces a table schema (used for `into table` results,
  /// which may legitimately overwrite earlier results of the same name).
  void put_table(const std::string& name, storage::Schema schema);
  Status add_vertex(const std::string& name, VertexMeta meta);
  Status add_edge(const std::string& name, EdgeMeta meta);
  void add_subgraph(const std::string& name, SubgraphMeta meta);

  const storage::Schema* find_table(const std::string& name) const;
  const VertexMeta* find_vertex(const std::string& name) const;
  const EdgeMeta* find_edge(const std::string& name) const;
  const SubgraphMeta* find_subgraph(const std::string& name) const;

  /// The name of a vertex or edge type whose declaration reads `table`
  /// (its source table, or one of its `from table`s), or null.
  const std::string* declaration_reading(const std::string& table) const;

  bool name_in_use(const std::string& name) const;

  /// Edge types from src to dst (for static variant/adjacency checks).
  std::vector<std::string> edges_between(const std::string& src,
                                         const std::string& dst) const;

  /// All declared edge type names (pass 4 expands variant `--[]-->` steps
  /// over these).
  std::vector<std::string> edge_names() const;

  /// All declared vertex type names (the types a variant `[ ]` step may
  /// match).
  std::vector<std::string> vertex_names() const;

 private:
  std::map<std::string, storage::Schema> tables_;
  std::map<std::string, VertexMeta> vertices_;
  std::map<std::string, EdgeMeta> edges_;
  std::map<std::string, SubgraphMeta> subgraphs_;
};

// ---- Multi-error entry points ---------------------------------------------

/// Analyzes a whole script front to back, collecting every diagnostic,
/// including the cross-statement pass 5 (use-before-ingest, results
/// overwritten before any read).
void analyze_script_collect(const Script& script, MetaCatalog& catalog,
                            DiagnosticEngine& diags,
                            const AnalyzeOptions& opts = {});

// ---- Fail-stop compatibility wrappers -------------------------------------

/// Analyzes one statement against (and updates) `catalog`. When `params`
/// is non-null, parameter types participate in type checking; otherwise
/// parameters type-check as wildcards. Returns the first error (same
/// StatusCode and message a pre-diag caller saw); warnings are dropped.
Status analyze_statement(const Statement& stmt, MetaCatalog& catalog,
                         const relational::ParamMap* params = nullptr);

/// Analyzes a whole script front to back, stopping at the first statement
/// with an error (its Status carries "statement N" context).
Status analyze_script(const Script& script, MetaCatalog& catalog,
                      const relational::ParamMap* params = nullptr);

}  // namespace gems::graql
