// Edge types — relations between two vertex types (paper Eq. 2):
//   E(a1..an) = (S ⋈ σ_φ(A)) ⋈ T
// materialized as parallel endpoint arrays (chunked, so an ingest's copy
// shares their sealed chunks with the previous epoch) plus *bidirectional*
// CSR indices. The paper (Sec. III-B) calls the edge index "a fundamental data
// structure": the forward index supports S -E-> T steps, the reverse index
// lets the planner run a step right-to-left, which is what makes
// non-lexical execution orders possible.
#pragma once

#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/chunked_array.hpp"
#include "common/status.hpp"
#include "graph/ids.hpp"
#include "storage/table.hpp"

namespace gems::graph {

/// Compressed-sparse-row adjacency: for each vertex of the indexed side,
/// the (other-endpoint, edge id) pairs of its incident edges.
class CsrIndex {
 public:
  /// Builds from endpoint arrays: edge e runs indexed_side[e] ->
  /// other_side[e]; `n` is the vertex count of the indexed side. The fill
  /// cursor comes from `scratch`.
  static CsrIndex build(std::size_t n,
                        const ChunkedArray<VertexIndex>& indexed,
                        const ChunkedArray<VertexIndex>& other,
                        std::pmr::memory_resource* scratch);

  std::size_t num_vertices() const noexcept { return offsets_.size() - 1; }

  std::uint32_t degree(VertexIndex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexIndex> neighbors(VertexIndex v) const {
    return {neighbor_.data() + offsets_[v], degree(v)};
  }

  std::span<const EdgeIndex> edges(VertexIndex v) const {
    return {edge_.data() + offsets_[v], degree(v)};
  }

  std::size_t num_edges() const noexcept { return neighbor_.size(); }

  std::size_t byte_size() const noexcept {
    return offsets_.size() * sizeof(std::uint32_t) +
           neighbor_.size() * sizeof(VertexIndex) +
           edge_.size() * sizeof(EdgeIndex);
  }

  // ---- Snapshot serialization (gems::store) ---------------------------
  /// Raw offsets array (size num_vertices()+1), for the serializer.
  std::span<const std::uint32_t> raw_offsets() const noexcept {
    return offsets_;
  }
  std::span<const VertexIndex> raw_neighbors() const noexcept {
    return neighbor_;
  }
  std::span<const EdgeIndex> raw_edges() const noexcept { return edge_; }

  /// Rebuilds an index from serialized arrays, validating the CSR
  /// invariants (monotone offsets bracketing the arrays, parallel array
  /// sizes) so corrupt input is rejected rather than read out of bounds.
  static Result<CsrIndex> restore(std::vector<std::uint32_t> offsets,
                                  std::vector<VertexIndex> neighbor,
                                  std::vector<EdgeIndex> edge);

 private:
  std::vector<std::uint32_t> offsets_;  // size n+1
  std::vector<VertexIndex> neighbor_;   // other endpoint, grouped by owner
  std::vector<EdgeIndex> edge_;         // edge id, parallel to neighbor_
};

class EdgeType {
 public:
  /// Assembled by GraphBuilder after it runs the Eq. 2 joins. `attr_table`
  /// (may be null) holds one row per edge, in edge order — the attributes
  /// from the `from table` clause. The CSR builds' cursors come from
  /// `scratch`.
  static EdgeType assemble(EdgeTypeId id, std::string name,
                           VertexTypeId src_type, VertexTypeId dst_type,
                           std::size_t num_src_vertices,
                           std::size_t num_dst_vertices,
                           ChunkedArray<VertexIndex> src,
                           ChunkedArray<VertexIndex> dst,
                           storage::TablePtr attr_table,
                           std::pmr::memory_resource* scratch);

  EdgeTypeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  VertexTypeId source_type() const noexcept { return src_type_; }
  VertexTypeId target_type() const noexcept { return dst_type_; }

  std::size_t num_edges() const noexcept { return src_.size(); }

  VertexIndex source_vertex(EdgeIndex e) const { return src_.at(e); }
  VertexIndex target_vertex(EdgeIndex e) const { return dst_.at(e); }
  /// Both endpoint arrays, indexed by edge.
  const ChunkedArray<VertexIndex>& source_vertices() const noexcept {
    return src_;
  }
  const ChunkedArray<VertexIndex>& target_vertices() const noexcept {
    return dst_;
  }

  /// Bytes of both endpoint arrays (the `graph.endpoints.bytes` gauge).
  std::size_t endpoint_bytes() const noexcept {
    return src_.byte_size() + dst_.byte_size();
  }

  /// Forward index: keyed by source vertex, neighbors are targets.
  const CsrIndex& forward() const noexcept { return forward_; }
  /// Reverse index: keyed by target vertex, neighbors are sources.
  const CsrIndex& reverse() const noexcept { return reverse_; }

  /// Edge-attribute table (nullptr when the edge carries no attributes).
  /// Row e holds the attributes of edge e.
  const storage::Table* attr_table() const noexcept {
    return attr_table_.get();
  }
  storage::TablePtr attr_table_ptr() const noexcept { return attr_table_; }

  Result<storage::ColumnIndex> resolve_attribute(std::string_view name) const;

  /// Snapshot restore (gems::store): reassembles an edge type from
  /// serialized endpoint arrays and prebuilt CSR indices (no join re-run,
  /// no index rebuild — recovery loads at deserialization speed).
  /// Validates that the pieces are mutually consistent.
  static Result<EdgeType> restore(EdgeTypeId id, std::string name,
                                  VertexTypeId src_type,
                                  VertexTypeId dst_type,
                                  std::vector<VertexIndex> src,
                                  std::vector<VertexIndex> dst,
                                  storage::TablePtr attr_table,
                                  CsrIndex forward, CsrIndex reverse);

 private:
  EdgeType() = default;

  EdgeTypeId id_ = kInvalidEdgeType;
  std::string name_;
  VertexTypeId src_type_ = kInvalidVertexType;
  VertexTypeId dst_type_ = kInvalidVertexType;
  ChunkedArray<VertexIndex> src_;
  ChunkedArray<VertexIndex> dst_;
  storage::TablePtr attr_table_;
  CsrIndex forward_;
  CsrIndex reverse_;
};

}  // namespace gems::graph
