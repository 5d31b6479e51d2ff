// Named subgraph results (paper Sec. II-C, Fig. 11): the output of a graph
// query captured with `into subgraph`, usable to seed later queries
// (Fig. 12). Stored as per-type membership bitsets over the base graph —
// a subgraph is a selection over G, never a copy.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>

#include "common/bitset.hpp"
#include "graph/graph_view.hpp"

namespace gems::exec {

class Subgraph;
using SubgraphPtr = std::shared_ptr<Subgraph>;

class Subgraph {
 public:
  explicit Subgraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  /// Membership set for a vertex type (created lazily, sized on demand).
  DynamicBitset& vertices(graph::VertexTypeId type, std::size_t size);
  DynamicBitset& edges(graph::EdgeTypeId type, std::size_t size);

  /// Read-only lookup; nullptr when the type has no members.
  const DynamicBitset* vertices(graph::VertexTypeId type) const;
  const DynamicBitset* edges(graph::EdgeTypeId type) const;

  std::size_t num_vertices() const;
  std::size_t num_edges() const;

  /// Union with another subgraph (or-composition, Eq. 9).
  void merge(const Subgraph& other);

  /// Deep copy with every membership bitset zero-padded to the current
  /// size of its type in `graph`. Incremental ingest preserves instance
  /// numbering while growing the types, so a pre-ingest subgraph stays
  /// valid — the new instances are simply not members. The copy leaves
  /// the original untouched (it may be shared with pinned epochs whose
  /// graphs still have the old sizes).
  SubgraphPtr resized_for(const graph::GraphView& graph) const;

  /// As resized_for(graph), except that the edges of the `renumbered`
  /// types, which the ingest built in full (graph::DeltaFolds), move from
  /// their ids in `before` to the same edges' ids in `graph`. An edge is
  /// its (source, target) pair; edges sharing one keep their order.
  SubgraphPtr resized_for(const graph::GraphView& graph,
                          const graph::GraphView& before,
                          std::span<const graph::EdgeTypeId> renumbered) const;

  /// Human-readable summary ("resultsG: 120 vertices, 204 edges").
  std::string summary() const;

 private:
  std::string name_;
  std::map<graph::VertexTypeId, DynamicBitset> vertices_;
  std::map<graph::EdgeTypeId, DynamicBitset> edges_;
};



}  // namespace gems::exec
