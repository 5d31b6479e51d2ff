#include "exec/subgraph.hpp"

#include <algorithm>
#include <compare>
#include <tuple>
#include <vector>

namespace gems::exec {

DynamicBitset& Subgraph::vertices(graph::VertexTypeId type,
                                  std::size_t size) {
  auto it = vertices_.find(type);
  if (it == vertices_.end()) {
    it = vertices_.emplace(type, DynamicBitset(size)).first;
  }
  GEMS_CHECK(it->second.size() == size);
  return it->second;
}

DynamicBitset& Subgraph::edges(graph::EdgeTypeId type, std::size_t size) {
  auto it = edges_.find(type);
  if (it == edges_.end()) {
    it = edges_.emplace(type, DynamicBitset(size)).first;
  }
  GEMS_CHECK(it->second.size() == size);
  return it->second;
}

const DynamicBitset* Subgraph::vertices(graph::VertexTypeId type) const {
  auto it = vertices_.find(type);
  return it == vertices_.end() ? nullptr : &it->second;
}

const DynamicBitset* Subgraph::edges(graph::EdgeTypeId type) const {
  auto it = edges_.find(type);
  return it == edges_.end() ? nullptr : &it->second;
}

std::size_t Subgraph::num_vertices() const {
  std::size_t n = 0;
  for (const auto& [type, set] : vertices_) n += set.count();
  return n;
}

std::size_t Subgraph::num_edges() const {
  std::size_t n = 0;
  for (const auto& [type, set] : edges_) n += set.count();
  return n;
}

void Subgraph::merge(const Subgraph& other) {
  for (const auto& [type, set] : other.vertices_) {
    auto it = vertices_.find(type);
    if (it == vertices_.end()) {
      vertices_.emplace(type, set);
    } else {
      it->second |= set;
    }
  }
  for (const auto& [type, set] : other.edges_) {
    auto it = edges_.find(type);
    if (it == edges_.end()) {
      edges_.emplace(type, set);
    } else {
      it->second |= set;
    }
  }
}

SubgraphPtr Subgraph::resized_for(const graph::GraphView& graph) const {
  auto out = std::make_shared<Subgraph>(name_);
  for (const auto& [type, set] : vertices_) {
    DynamicBitset grown = set;
    if (type < graph.num_vertex_types()) {
      grown.resize(graph.vertex_type(type).num_vertices(), false);
    }
    out->vertices_.emplace(type, std::move(grown));
  }
  for (const auto& [type, set] : edges_) {
    DynamicBitset grown = set;
    if (type < graph.num_edge_types()) {
      grown.resize(graph.edge_type(type).num_edges(), false);
    }
    out->edges_.emplace(type, std::move(grown));
  }
  return out;
}

namespace {

/// `bits` over `was`'s edges, moved to the same edges of `now`, which holds
/// every edge of `was` (and maybe more) in another order.
DynamicBitset renumber_edges(const DynamicBitset& bits,
                             const graph::EdgeType& was,
                             const graph::EdgeType& now) {
  struct Keyed {
    graph::VertexIndex src;
    graph::VertexIndex dst;
    graph::EdgeIndex id;
    auto operator<=>(const Keyed&) const = default;
  };
  // Edges ordered by (source, target, id): the k-th edge of a pair in
  // `was` is the k-th edge of that pair in `now`.
  auto keyed = [](const graph::EdgeType& et) {
    std::vector<Keyed> out;
    out.reserve(et.num_edges());
    for (graph::EdgeIndex e = 0; e < et.num_edges(); ++e) {
      out.push_back({et.source_vertex(e), et.target_vertex(e), e});
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<Keyed> from = keyed(was);
  const std::vector<Keyed> to = keyed(now);
  DynamicBitset out(now.num_edges());
  std::size_t j = 0;
  for (const Keyed& edge : from) {
    while (j < to.size() &&
           std::tie(to[j].src, to[j].dst) < std::tie(edge.src, edge.dst)) {
      ++j;
    }
    GEMS_CHECK(j < to.size() && to[j].src == edge.src &&
               to[j].dst == edge.dst);
    if (bits.test(edge.id)) out.set(to[j].id);
    ++j;
  }
  return out;
}

}  // namespace

SubgraphPtr Subgraph::resized_for(
    const graph::GraphView& graph, const graph::GraphView& before,
    std::span<const graph::EdgeTypeId> renumbered) const {
  SubgraphPtr out = resized_for(graph);
  for (const graph::EdgeTypeId type : renumbered) {
    auto it = edges_.find(type);
    if (it == edges_.end()) continue;
    out->edges_.at(type) = renumber_edges(it->second, before.edge_type(type),
                                          graph.edge_type(type));
  }
  return out;
}

std::string Subgraph::summary() const {
  return name_ + ": " + std::to_string(num_vertices()) + " vertices, " +
         std::to_string(num_edges()) + " edges";
}

}  // namespace gems::exec
