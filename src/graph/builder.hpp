// Materializes vertex and edge declarations (paper Figs. 2-4) into a
// GraphView. This is where the DDL's `create vertex` / `create edge`
// semantics live:
//
//  * Vertices (Eq. 1): distinct key combinations of the filtered source
//    table. One-to-one vs. many-to-one is detected, not declared.
//  * Edges (Eq. 2): an N-way equi-join across the source-vertex table, the
//    target-vertex table and any `from table` associated tables, driven by
//    the WHERE clause's equality conjuncts; remaining conjuncts filter
//    individual sources or the joined result.
//
// Edge-instance identity (multigraph semantics, Figs. 3 & 5):
//  * all endpoints one-to-one  -> one edge per distinct join entry
//    (so a `from table` row yields exactly one edge, Fig. 3);
//  * any endpoint many-to-one  -> edges collapse onto distinct
//    (source vertex, target vertex) pairs (Fig. 5's two export edges).
//
// Edge order (full build): join entries in ascending order of their rows,
// compared source by source in attach order. The join starts at the
// source vertex's table and repeatedly attaches the lowest-numbered
// source (source vertex, target vertex, then the `from table`s in
// declaration order) that an equality between two columns links to the
// sources already attached. A collapsed pair takes the place of its first
// join entry. With exactly one `from table` and no collapse, each edge
// keeps its association row as attributes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "graph/graph_view.hpp"
#include "relational/bound_expr.hpp"
#include "storage/catalog.hpp"

namespace gems::graph {

struct VertexDecl {
  std::string name;
  std::vector<std::string> key_columns;
  std::string table;
  relational::ExprPtr where;  // optional σ_φ
};

struct EdgeEndpoint {
  std::string vertex_type;
  std::string alias;  // optional `as A`
};

struct EdgeDecl {
  std::string name;
  EdgeEndpoint source;
  EdgeEndpoint target;
  std::vector<std::string> assoc_tables;  // `from table T1[, T2...]`
  relational::ExprPtr where;              // required
};

/// A vertex declaration's key columns and WHERE clause bound over the
/// schema of its source table.
struct VertexDeclBinding {
  std::vector<storage::ColumnIndex> key_cols;
  relational::BoundExprPtr filter;  // null without a WHERE clause
};

/// Binds `decl` over `source`, its table's schema, for the build and the
/// analyzer alike.
Result<VertexDeclBinding> bind_vertex_decl(const VertexDecl& decl,
                                           const storage::Schema& source,
                                           StringPool& pool);

/// The names addressing each join source of `decl` in its WHERE clause:
/// source 0 is the source vertex's table, 1 the target's, then the `from
/// table`s in order. Fails without a WHERE clause, on same-type endpoints
/// without `as` aliases, and on more than 8 sources.
Result<std::vector<std::vector<std::string>>> edge_join_qualifiers(
    const EdgeDecl& decl);

/// An edge declaration's WHERE clause bound over its join sources. A
/// conjunct over one source joins that source's filter (the AND of its
/// conjuncts, rebased to source 0 for the relational kernels); a
/// `column = column` over two sources links them; the rest are residual
/// predicates on the joined tuple.
struct EdgeDeclBinding {
  struct Link {
    relational::Slot left;
    relational::Slot right;
  };
  std::vector<relational::BoundExprPtr> filters;  // per source, or null
  std::vector<Link> links;
  std::vector<relational::BoundExprPtr> residual;
};

/// Binds `decl` over `sources`, its join sources' schemas in
/// edge_join_qualifiers' order, for the build and the analyzer alike. Fails
/// as edge_join_qualifiers does, and on a link between two kinds.
Result<EdgeDeclBinding> bind_edge_decl(
    const EdgeDecl& decl, std::span<const storage::Schema* const> sources,
    StringPool& pool);

/// Builds and registers a vertex type on the calling thread, with its
/// transient state on large_array_resource(). A declaration takes no
/// %parameters% (the analyzer rejects them, GQL0105), so the graph is a
/// function of the declarations and the tables alone.
Status add_vertex_type(GraphView& graph, const VertexDecl& decl,
                       const storage::TableCatalog& tables, StringPool& pool);

/// Builds and registers an edge type, as add_vertex_type does.
Status add_edge_type(GraphView& graph, const EdgeDecl& decl,
                     const storage::TableCatalog& tables, StringPool& pool);

/// Builds every declared type into a new graph: the regeneration of
/// derived instances that populating tables triggers (paper Sec. II-A2).
/// Declarations bind one at a time in declaration order, so pool ids do
/// not depend on `workers`. Then all vertex types build concurrently on
/// `workers` and register in declaration order, and then all edge types,
/// largest first, against those vertex types. Without `workers` the same
/// tasks run on the calling thread. Each type's build draws its transient
/// state from a scratch arena of its own, unmapped as soon as that type
/// is built (DESIGN.md §5n). Fails with the status of the first failing declaration in
/// declaration order, vertex types first; the calling thread must not be
/// one of `workers`.
Result<GraphView> build_graph(std::span<const VertexDecl> vertex_decls,
                              std::span<const EdgeDecl> edge_decls,
                              const storage::TableCatalog& tables,
                              StringPool& pool, ThreadPool* workers);

/// Incremental maintenance input (gems::mvcc): the ingest appended rows
/// `>= first_new_row` to the table named `ingested_table` (already swapped
/// into `tables` as a copy-on-write clone), and `base` is the edge type
/// built before the ingest.
struct EdgeDelta {
  std::string ingested_table;
  storage::RowIndex first_new_row = 0;
  const EdgeType* base = nullptr;
};

/// Re-runs the Eq. 2 join only for tuples that involve at least one newly
/// ingested row (one pass per occurrence of the ingested table among the
/// join sources, deduplicated across passes and against the base edges),
/// and appends the resulting edges after the base's. Endpoint vertex types
/// are resolved against `graph`, which must already hold the extended
/// (post-ingest) vertex types; vertex numbering is stable across
/// VertexType::extend, so the base endpoint arrays remain valid. Both CSR
/// directions extend the base's through CsrIndex::extend: a new tail over
/// the shared base, O(tail + delta) until it folds. Transient state is on
/// large_array_resource().
///
/// Appending keeps a full build's edge order only when the ingested table
/// is the source endpoint's and no other join source's. When it is not
/// and the join found new edges, the type is built in full instead, so
/// delta == rebuild byte for byte (DESIGN.md §5n), and `*renumbered` (may
/// be null) is set: the base's edges may have new ids.
Result<EdgeType> extend_edge_type(const GraphView& graph, const EdgeDecl& decl,
                                  const storage::TableCatalog& tables,
                                  StringPool& pool, const EdgeDelta& delta,
                                  bool* renumbered = nullptr);

}  // namespace gems::graph
