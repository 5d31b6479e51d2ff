// Incremental CSR maintenance for ingest (gems::mvcc). When a CSV batch
// is appended to one table, only the vertex types viewing that table and
// the edge types joining it change — every other type is shared with the
// previous graph by shared_ptr, affected vertex types are extended in
// place-equivalent fashion (stable vertex numbering), and affected edge
// types re-run the Eq. 2 join only for tuples touching the new rows. The
// CSR indices and key indices grow by a tail over a shared base. An edge
// type whose new edges a full build would number among the old ones is
// built in full instead (extend_edge_type).
// Replaces the full ctx.rebuild_graph() on the ingest hot path.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "graph/builder.hpp"
#include "graph/graph_view.hpp"
#include "storage/catalog.hpp"

namespace gems::graph {

/// What one extend_graph_for_ingest call folded (DESIGN.md §5n): CSR
/// directions whose tail became a new base, and vertex key indices whose
/// tail merged into a new base; and the edge types it built in full, whose
/// edge ids changed (extend_edge_type).
struct DeltaFolds {
  std::uint64_t csr = 0;
  std::uint64_t key_index = 0;
  std::vector<EdgeTypeId> renumbered;
};

/// Builds the post-ingest graph from `graph` after `first_new_row`-onward
/// rows were appended to the table named `table_name` (whose copy-on-write
/// clone is already registered in `tables`; `graph`'s types still point at
/// the pre-ingest table). On success replaces `graph` with the extended
/// view and returns true. Returns false when a new row collapses a
/// previously one-to-one vertex key (attribute visibility and edge
/// collapse semantics change): the caller must then rebuild in full.
/// The decision depends only on the declarations and the ingested data, so
/// WAL replay of the same record sequence takes the same path and
/// reproduces the live graph byte-for-byte. `folds` (may be null) counts
/// the folds of an applied delta.
Result<bool> extend_graph_for_ingest(
    GraphView& graph, std::string_view table_name,
    storage::RowIndex first_new_row,
    const std::vector<VertexDecl>& vertex_decls,
    const std::vector<EdgeDecl>& edge_decls,
    const storage::TableCatalog& tables, StringPool& pool,
    DeltaFolds* folds = nullptr);

/// The same, for callers that still pass the context's query parameters
/// (bench/e2e/trace.cpp). Declarations take none, so `params` is unread.
inline Result<bool> extend_graph_for_ingest(
    GraphView& graph, std::string_view table_name,
    storage::RowIndex first_new_row,
    const std::vector<VertexDecl>& vertex_decls,
    const std::vector<EdgeDecl>& edge_decls,
    const storage::TableCatalog& tables, StringPool& pool,
    const relational::ParamMap& /*params*/, DeltaFolds* folds = nullptr) {
  return extend_graph_for_ingest(graph, table_name, first_new_row,
                                 vertex_decls, edge_decls, tables, pool,
                                 folds);
}

}  // namespace gems::graph
