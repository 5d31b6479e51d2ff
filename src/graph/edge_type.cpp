#include "graph/edge_type.hpp"

#include "common/check.hpp"

namespace gems::graph {

CsrIndex CsrIndex::build(std::size_t n,
                         const ChunkedArray<VertexIndex>& indexed,
                         const ChunkedArray<VertexIndex>& other,
                         std::pmr::memory_resource* scratch) {
  GEMS_CHECK(indexed.size() == other.size());
  CsrIndex out;
  out.offsets_.assign(n + 1, 0);
  for (std::size_t c = 0; c < indexed.num_chunks(); ++c) {
    for (const VertexIndex v : indexed.chunk(c)) {
      GEMS_DCHECK(v < n);
      ++out.offsets_[v + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) out.offsets_[i] += out.offsets_[i - 1];

  out.neighbor_.resize(indexed.size());
  out.edge_.resize(indexed.size());
  std::pmr::vector<std::uint32_t> cursor(out.offsets_.begin(),
                                         out.offsets_.end() - 1, scratch);
  // Both arrays chunk identically, so chunk c of each holds the same edges.
  for (std::size_t c = 0; c < indexed.num_chunks(); ++c) {
    const std::span<const VertexIndex> from = indexed.chunk(c);
    const std::span<const VertexIndex> to = other.chunk(c);
    const std::size_t first = c * kChunkRows;
    for (std::size_t i = 0; i < from.size(); ++i) {
      const std::uint32_t pos = cursor[from[i]]++;
      out.neighbor_[pos] = to[i];
      out.edge_[pos] = static_cast<EdgeIndex>(first + i);
    }
  }
  return out;
}

Result<CsrIndex> CsrIndex::restore(std::vector<std::uint32_t> offsets,
                                   std::vector<VertexIndex> neighbor,
                                   std::vector<EdgeIndex> edge) {
  if (offsets.empty()) {
    return invalid_argument("CSR restore: empty offsets array");
  }
  if (offsets.front() != 0 || offsets.back() != neighbor.size()) {
    return invalid_argument("CSR restore: offsets do not bracket " +
                            std::to_string(neighbor.size()) + " entries");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return invalid_argument("CSR restore: offsets not monotone at " +
                              std::to_string(i));
    }
  }
  if (neighbor.size() != edge.size()) {
    return invalid_argument("CSR restore: parallel array size mismatch");
  }
  for (const EdgeIndex e : edge) {
    if (e >= neighbor.size()) {
      return invalid_argument("CSR restore: edge id " + std::to_string(e) +
                              " out of range");
    }
  }
  CsrIndex out;
  out.offsets_ = std::move(offsets);
  out.neighbor_ = std::move(neighbor);
  out.edge_ = std::move(edge);
  return out;
}

EdgeType EdgeType::assemble(EdgeTypeId id, std::string name,
                            VertexTypeId src_type, VertexTypeId dst_type,
                            std::size_t num_src_vertices,
                            std::size_t num_dst_vertices,
                            ChunkedArray<VertexIndex> src,
                            ChunkedArray<VertexIndex> dst,
                            storage::TablePtr attr_table,
                            std::pmr::memory_resource* scratch) {
  GEMS_CHECK(src.size() == dst.size());
  GEMS_CHECK(attr_table == nullptr || attr_table->num_rows() == src.size());
  EdgeType et;
  et.id_ = id;
  et.name_ = std::move(name);
  et.src_type_ = src_type;
  et.dst_type_ = dst_type;
  et.src_ = std::move(src);
  et.dst_ = std::move(dst);
  et.attr_table_ = std::move(attr_table);
  // Both directions are always built (the paper builds the reverse index
  // "when memory space on the cluster is available"; in-process we always
  // have it, and bench_planner_ablation quantifies what it buys).
  et.forward_ = CsrIndex::build(num_src_vertices, et.src_, et.dst_, scratch);
  et.reverse_ = CsrIndex::build(num_dst_vertices, et.dst_, et.src_, scratch);
  return et;
}

Result<EdgeType> EdgeType::restore(EdgeTypeId id, std::string name,
                                   VertexTypeId src_type,
                                   VertexTypeId dst_type,
                                   std::vector<VertexIndex> src,
                                   std::vector<VertexIndex> dst,
                                   storage::TablePtr attr_table,
                                   CsrIndex forward, CsrIndex reverse) {
  if (src.size() != dst.size()) {
    return invalid_argument("edge type '" + name +
                            "' restore: endpoint array size mismatch");
  }
  if (attr_table != nullptr && attr_table->num_rows() != src.size()) {
    return invalid_argument("edge type '" + name +
                            "' restore: attribute table rows != edges");
  }
  if (forward.num_edges() != src.size() || reverse.num_edges() != src.size()) {
    return invalid_argument("edge type '" + name +
                            "' restore: CSR entry count != edges");
  }
  for (const VertexIndex v : src) {
    if (v >= forward.num_vertices()) {
      return invalid_argument("edge type '" + name +
                              "' restore: source vertex out of range");
    }
  }
  for (const VertexIndex v : dst) {
    if (v >= reverse.num_vertices()) {
      return invalid_argument("edge type '" + name +
                              "' restore: target vertex out of range");
    }
  }
  EdgeType et;
  et.id_ = id;
  et.name_ = std::move(name);
  et.src_type_ = src_type;
  et.dst_type_ = dst_type;
  et.src_.append(src.data(), src.size());
  et.dst_.append(dst.data(), dst.size());
  et.attr_table_ = std::move(attr_table);
  et.forward_ = std::move(forward);
  et.reverse_ = std::move(reverse);
  return et;
}

Result<storage::ColumnIndex> EdgeType::resolve_attribute(
    std::string_view attr) const {
  if (!attr_table_) {
    return type_error("edge type '" + name_ +
                      "' has no attributes (declared without 'from table')");
  }
  auto col = attr_table_->schema().find(attr);
  if (!col) {
    return not_found("edge type '" + name_ + "' has no attribute '" +
                     std::string(attr) + "'");
  }
  return *col;
}

}  // namespace gems::graph
