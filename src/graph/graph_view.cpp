#include "graph/graph_view.hpp"

namespace gems::graph {

Status GraphView::add_vertex_type(VertexType vt) {
  return add_vertex_type(std::make_shared<const VertexType>(std::move(vt)));
}

Status GraphView::add_edge_type(EdgeType et) {
  return add_edge_type(std::make_shared<const EdgeType>(std::move(et)));
}

Status GraphView::add_vertex_type(std::shared_ptr<const VertexType> vt) {
  GEMS_CHECK(vt != nullptr && vt->id() == next_vertex_type_id());
  if (vertex_by_name_.contains(vt->name()) ||
      edge_by_name_.contains(vt->name())) {
    return already_exists("graph element '" + vt->name() +
                          "' already declared");
  }
  vertex_by_name_.emplace(vt->name(), vt->id());
  vertex_types_.push_back(std::move(vt));
  return Status::ok();
}

Status GraphView::add_edge_type(std::shared_ptr<const EdgeType> et) {
  GEMS_CHECK(et != nullptr && et->id() == next_edge_type_id());
  if (edge_by_name_.contains(et->name()) ||
      vertex_by_name_.contains(et->name())) {
    return already_exists("graph element '" + et->name() +
                          "' already declared");
  }
  edge_by_name_.emplace(et->name(), et->id());
  edge_types_.push_back(std::move(et));
  return Status::ok();
}

Result<VertexTypeId> GraphView::find_vertex_type(std::string_view name) const {
  auto it = vertex_by_name_.find(std::string(name));
  if (it == vertex_by_name_.end()) {
    return not_found("no vertex type named '" + std::string(name) + "'");
  }
  return it->second;
}

Result<EdgeTypeId> GraphView::find_edge_type(std::string_view name) const {
  auto it = edge_by_name_.find(std::string(name));
  if (it == edge_by_name_.end()) {
    return not_found("no edge type named '" + std::string(name) + "'");
  }
  return it->second;
}

std::size_t GraphView::total_vertices() const noexcept {
  std::size_t n = 0;
  for (const auto& vt : vertex_types_) n += vt->num_vertices();
  return n;
}

std::size_t GraphView::total_edges() const noexcept {
  std::size_t n = 0;
  for (const auto& et : edge_types_) n += et->num_edges();
  return n;
}

}  // namespace gems::graph
