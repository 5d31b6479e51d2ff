#include "graph/delta.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "relational/bound_expr.hpp"

namespace gems::graph {

Result<bool> extend_graph_for_ingest(
    GraphView& graph, std::string_view table_name,
    storage::RowIndex first_new_row,
    const std::vector<VertexDecl>& vertex_decls,
    const std::vector<EdgeDecl>& edge_decls,
    const storage::TableCatalog& tables, StringPool& pool,
    DeltaFolds* folds) {
  // The graph must mirror the declaration lists one-to-one (it always
  // does outside of mid-DDL states, which rebuild instead).
  if (graph.num_vertex_types() != vertex_decls.size() ||
      graph.num_edge_types() != edge_decls.size()) {
    return false;
  }

  GraphView fresh;
  DeltaFolds counted;

  for (const auto& decl : vertex_decls) {
    auto id = graph.find_vertex_type(decl.name);
    if (!id.is_ok() || *id != fresh.next_vertex_type_id()) return false;
    if (decl.table != table_name) {
      // Untouched table: share the type with the previous graph.
      GEMS_RETURN_IF_ERROR(fresh.add_vertex_type(graph.vertex_type_ptr(*id)));
      continue;
    }
    GEMS_ASSIGN_OR_RETURN(storage::TablePtr source, tables.find(decl.table));
    GEMS_ASSIGN_OR_RETURN(VertexDeclBinding bound,
                          bind_vertex_decl(decl, source->schema(), pool));
    bool flipped = false;
    GEMS_ASSIGN_OR_RETURN(
        VertexType vt,
        VertexType::extend(graph.vertex_type(*id), std::move(source),
                           bound.filter.get(), first_new_row, &flipped));
    if (flipped) return false;
    if (!vt.shares_key_base(graph.vertex_type(*id))) ++counted.key_index;
    GEMS_RETURN_IF_ERROR(
        fresh.add_vertex_type(std::make_shared<const VertexType>(
            std::move(vt))));
  }

  for (const auto& decl : edge_decls) {
    auto id = graph.find_edge_type(decl.name);
    if (!id.is_ok() || *id != fresh.next_edge_type_id()) return false;

    // An edge type is affected iff the ingested table occurs among its
    // join sources: an endpoint's source table or an associated table.
    bool affected = false;
    for (const auto& ep : {decl.source, decl.target}) {
      auto vid = fresh.find_vertex_type(ep.vertex_type);
      if (!vid.is_ok()) return false;
      if (fresh.vertex_type(*vid).source().name() == table_name) {
        affected = true;
      }
    }
    for (const auto& assoc : decl.assoc_tables) {
      if (assoc == table_name) affected = true;
    }
    if (!affected) {
      GEMS_RETURN_IF_ERROR(fresh.add_edge_type(graph.edge_type_ptr(*id)));
      continue;
    }

    EdgeDelta delta{std::string(table_name), first_new_row,
                    &graph.edge_type(*id)};
    bool renumbered = false;
    GEMS_ASSIGN_OR_RETURN(EdgeType et,
                          extend_edge_type(fresh, decl, tables, pool, delta,
                                           &renumbered));
    if (renumbered) counted.renumbered.push_back(*id);
    counted.csr += !et.forward().shares_base(delta.base->forward());
    counted.csr += !et.reverse().shares_base(delta.base->reverse());
    GEMS_RETURN_IF_ERROR(fresh.add_edge_type(
        std::make_shared<const EdgeType>(std::move(et))));
  }

  graph = std::move(fresh);
  if (folds != nullptr) *folds = std::move(counted);
  return true;
}

}  // namespace gems::graph
