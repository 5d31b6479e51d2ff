// The overall multigraph G = (V, E) of paper Sec. II-A1: vertex types
// partition V, edge types partition E. Holds every materialized type and
// answers the type-level queries the matcher and planner need (which edge
// types connect two vertex types — Eq. 10's variant steps).
//
// Types are held behind shared_ptr<const>: copying a GraphView is a cheap
// shallow snapshot (the mvcc epoch chain relies on this), and an
// incremental ingest can share every unaffected type with the previous
// graph while swapping in freshly built replacements for the affected ones.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "graph/edge_type.hpp"
#include "graph/vertex_type.hpp"

namespace gems::graph {

class GraphView {
 public:
  GraphView() = default;
  GraphView(const GraphView&) = default;
  GraphView& operator=(const GraphView&) = default;
  GraphView(GraphView&&) = default;
  GraphView& operator=(GraphView&&) = default;

  /// Next id to assign (used by the builder when materializing).
  VertexTypeId next_vertex_type_id() const {
    return static_cast<VertexTypeId>(vertex_types_.size());
  }
  EdgeTypeId next_edge_type_id() const {
    return static_cast<EdgeTypeId>(edge_types_.size());
  }

  /// Registers a materialized type; fails on duplicate names. The type's
  /// id must equal next_*_type_id() at the time of the call.
  Status add_vertex_type(VertexType vt);
  Status add_edge_type(EdgeType et);
  Status add_vertex_type(std::shared_ptr<const VertexType> vt);
  Status add_edge_type(std::shared_ptr<const EdgeType> et);

  Result<VertexTypeId> find_vertex_type(std::string_view name) const;
  Result<EdgeTypeId> find_edge_type(std::string_view name) const;

  const VertexType& vertex_type(VertexTypeId id) const {
    return *vertex_types_.at(id);
  }
  const EdgeType& edge_type(EdgeTypeId id) const { return *edge_types_.at(id); }

  /// Shared ownership of a type — lets an incremental rebuild reuse the
  /// unaffected types of a previous graph without copying them.
  std::shared_ptr<const VertexType> vertex_type_ptr(VertexTypeId id) const {
    return vertex_types_.at(id);
  }
  std::shared_ptr<const EdgeType> edge_type_ptr(EdgeTypeId id) const {
    return edge_types_.at(id);
  }

  std::size_t num_vertex_types() const noexcept {
    return vertex_types_.size();
  }
  std::size_t num_edge_types() const noexcept { return edge_types_.size(); }

  /// |V| and |E| of the overall graph.
  std::size_t total_vertices() const noexcept;
  std::size_t total_edges() const noexcept;

 private:
  std::vector<std::shared_ptr<const VertexType>> vertex_types_;
  std::vector<std::shared_ptr<const EdgeType>> edge_types_;
  std::unordered_map<std::string, VertexTypeId> vertex_by_name_;
  std::unordered_map<std::string, EdgeTypeId> edge_by_name_;
};

}  // namespace gems::graph
