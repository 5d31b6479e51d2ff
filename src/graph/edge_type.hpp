// Edge types — relations between two vertex types (paper Eq. 2):
//   E(a1..an) = (S ⋈ σ_φ(A)) ⋈ T
// materialized as parallel endpoint arrays (chunked, so an ingest's copy
// shares their sealed chunks with the previous epoch) plus *bidirectional*
// CSR indices. The paper (Sec. III-B) calls the edge index "a fundamental data
// structure": the forward index supports S -E-> T steps, the reverse index
// lets the planner run a step right-to-left, which is what makes
// non-lexical execution orders possible.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/chunked_array.hpp"
#include "common/large_array.hpp"
#include "common/status.hpp"
#include "graph/ids.hpp"
#include "storage/table.hpp"

namespace gems::graph {

/// One of the at most two pieces of a vertex's adjacency: the other
/// endpoints of some of its incident edges, and their edge ids. The ids
/// are either an array parallel to `neighbors` or, when `edge_ids` is
/// null, implicit: the i-th edge is `first_edge + i`.
struct AdjacencyPart {
  std::span<const VertexIndex> neighbors;
  const EdgeIndex* edge_ids = nullptr;
  EdgeIndex first_edge = 0;

  EdgeIndex edge(std::size_t i) const noexcept {
    return edge_ids != nullptr ? edge_ids[i]
                               : first_edge + static_cast<EdgeIndex>(i);
  }
};

/// A vertex's incident edges as its base part, then its tail part (either
/// may be absent). Concatenated, the parts list the edges in ascending
/// edge id order, as one flat CSR would.
class Adjacency {
 public:
  const AdjacencyPart* begin() const noexcept { return parts_; }
  const AdjacencyPart* end() const noexcept { return parts_ + count_; }

 private:
  friend class CsrIndex;
  void add(AdjacencyPart part) noexcept { parts_[count_++] = part; }

  AdjacencyPart parts_[2];
  std::uint32_t count_ = 0;
};

/// Compressed-sparse-row adjacency: for each vertex of the indexed side,
/// the (other-endpoint, edge id) pairs of its incident edges.
///
/// An index is an immutable base, shared by every epoch since it was
/// built, plus a tail of the edges appended since (DESIGN.md §5n). The
/// base is build()'s flat arrays. The tail groups only the appended edges
/// by indexed vertex: the sorted touched vertices, their offsets, their
/// (neighbor, edge) pairs, and one bit per vertex marking the touched
/// ones. A vertex's base edges all precede its tail edges in edge id
/// order, so base part then tail part is exactly the flat order.
///
/// When the indexed side is non-decreasing over the base's edges, a base
/// entry's edge id is its position, and the base stores no edge ids. The
/// tail always stores them.
class CsrIndex {
 public:
  /// Builds from endpoint arrays: edge e runs indexed_side[e] ->
  /// other_side[e]; `n` is the vertex count of the indexed side. The fill
  /// cursor comes from `scratch`. The result has an empty tail.
  static CsrIndex build(std::size_t n,
                        const ChunkedArray<VertexIndex>& indexed,
                        const ChunkedArray<VertexIndex>& other,
                        std::pmr::memory_resource* scratch);

  /// The index over the same arrays after edges [prev.num_edges(),
  /// indexed.size()) were appended and the indexed side grew to `n`
  /// vertices. Shares `prev`'s base and builds a new tail in O(tail +
  /// delta). Once the tail would exceed 1/kTailFoldDivisor of the base's
  /// edges it folds instead: the result is a fresh build().
  static CsrIndex extend(const CsrIndex& prev, std::size_t n,
                         const ChunkedArray<VertexIndex>& indexed,
                         const ChunkedArray<VertexIndex>& other,
                         std::pmr::memory_resource* scratch);

  std::size_t num_vertices() const noexcept { return num_vertices_; }

  std::size_t num_edges() const noexcept {
    return base_edges_ + tail_edges();
  }

  /// Edges in the tail (the `graph.csr.tail_edges` gauge).
  std::size_t tail_edges() const noexcept {
    return tail_ == nullptr ? 0 : tail_->neighbor.size();
  }

  /// Calls fn(const AdjacencyPart&) with v's base part, if v is a base
  /// vertex, then with its tail part, if it has one. The matcher's walks
  /// use this form: each call site inlines one copy of `fn` per part, so
  /// the base part runs the loop a flat CSR ran. (Ranging over
  /// adjacency() in those walks measured slower on the serial matcher
  /// benchmarks, EXPERIMENTS.md E-CSRTAIL.)
  template <typename Fn>
  void for_each_part(VertexIndex v, Fn&& fn) const {
    GEMS_DCHECK(v < num_vertices_);
    if (v < base_vertices_) {
      const std::uint32_t begin = offsets_[v];
      const std::uint32_t count = offsets_[v + 1] - begin;
      fn(AdjacencyPart{{neighbor_ + begin, count},
                       edge_ != nullptr ? edge_ + begin : nullptr, begin});
    }
    if (tail_ != nullptr && tail_->touched_bits.test(v)) fn(tail_->part(v));
  }

  /// v's parts, as for_each_part gives them.
  Adjacency adjacency(VertexIndex v) const {
    Adjacency out;
    for_each_part(v, [&out](const AdjacencyPart& part) { out.add(part); });
    return out;
  }

  std::uint32_t degree(VertexIndex v) const {
    std::uint32_t d = 0;
    for_each_part(v, [&d](const AdjacencyPart& part) {
      d += static_cast<std::uint32_t>(part.neighbors.size());
    });
    return d;
  }

  /// Bytes of the flat index build() would give for the same edges, so an
  /// index built, extended or restored to the same state reports the same
  /// size (the `graph.csr.bytes` gauge). That index stores edge ids only
  /// when the indexed side decreases somewhere over all the edges.
  std::size_t byte_size() const noexcept {
    return (num_vertices_ + 1) * sizeof(std::uint32_t) +
           num_edges() * (sizeof(VertexIndex) +
                          (ordered_ ? 0 : sizeof(EdgeIndex)));
  }

  /// True when the base stores no edge ids (its entries' ids are their
  /// positions).
  bool implicit_base() const noexcept {
    return edge_ == nullptr;
  }

  /// True when both indices read the same base arrays.
  bool shares_base(const CsrIndex& other) const noexcept {
    return base_ == other.base_;
  }

  // ---- Snapshot serialization (gems::store) ---------------------------
  // The snapshot holds the flat arrays build() would give. These calls
  // produce them in order, piece by piece, without materializing them.

  /// Calls fn(std::span<const std::uint32_t>) over consecutive pieces of
  /// the flat offsets array (num_vertices() + 1 entries).
  template <typename Fn>
  void for_each_flat_offsets(Fn&& fn) const {
    if (tail_ == nullptr && num_vertices_ == base_vertices_) {
      fn(std::span<const std::uint32_t>(offsets_, base_vertices_ + 1));
      return;
    }
    std::array<std::uint32_t, kChunkRows> piece;
    std::size_t fill = 0;
    std::size_t k = 0;  // touched vertices below v
    for (std::size_t v = 0; v <= num_vertices_; ++v) {
      std::uint32_t below = 0;  // tail edges of the vertices below v
      if (tail_ != nullptr) {
        while (k < tail_->touched.size() && tail_->touched[k] < v) ++k;
        below = tail_->offsets[k];
      }
      piece[fill++] = offsets_[std::min(v, base_vertices_)] + below;
      if (fill == piece.size() || v == num_vertices_) {
        fn(std::span<const std::uint32_t>(piece.data(), fill));
        fill = 0;
      }
    }
  }

  /// Calls fn(std::span<const VertexIndex> neighbors,
  /// std::span<const EdgeIndex> edges) over consecutive runs of the flat
  /// (neighbor, edge) arrays (num_edges() entries). Implicit edge ids are
  /// written out, a kChunkRows piece at a time.
  template <typename Fn>
  void for_each_flat_run(Fn&& fn) const {
    std::array<EdgeIndex, kChunkRows> ids;
    auto emit = [&](const AdjacencyPart& part) {
      const std::size_t count = part.neighbors.size();
      if (part.edge_ids != nullptr) {
        fn(part.neighbors, std::span<const EdgeIndex>(part.edge_ids, count));
        return;
      }
      for (std::size_t at = 0; at < count; at += ids.size()) {
        const std::size_t n = std::min(ids.size(), count - at);
        for (std::size_t i = 0; i < n; ++i) ids[i] = part.edge(at + i);
        fn(part.neighbors.subspan(at, n),
           std::span<const EdgeIndex>(ids.data(), n));
      }
    };
    std::uint32_t from = 0;  // base entries emitted so far
    auto base_run = [&](std::uint32_t to) {
      if (to > from) {
        emit(AdjacencyPart{{neighbor_ + from, to - from},
                           edge_ != nullptr ? edge_ + from : nullptr, from});
      }
      from = to;
    };
    if (tail_ != nullptr) {
      for (const VertexIndex v : tail_->touched) {
        base_run(offsets_[std::min<std::size_t>(v + 1, base_vertices_)]);
        emit(tail_->part(v));
      }
    }
    base_run(static_cast<std::uint32_t>(base_edges_));
  }

  /// Rebuilds an index from serialized arrays over the endpoint arrays
  /// `indexed` and `other` (edge e runs indexed[e] -> other[e]). Corrupt
  /// input is rejected rather than read out of bounds: the offsets must
  /// be monotone and bracket the arrays, the arrays parallel, and each
  /// entry of vertex v's group an edge e with indexed[e] == v and
  /// neighbor == other[e], the group's edge ids ascending. So the edge
  /// array is a permutation and the index is build()'s. The result has an
  /// empty tail, and its base takes the arrays over (they are copied only
  /// when not on large_array_resource()), dropping an identity edge array.
  static Result<CsrIndex> restore(std::pmr::vector<std::uint32_t> offsets,
                                  std::pmr::vector<VertexIndex> neighbor,
                                  std::pmr::vector<EdgeIndex> edge,
                                  std::span<const VertexIndex> indexed,
                                  std::span<const VertexIndex> other);

 private:
  // Every array below comes from large_array_resource() (DESIGN.md §5m):
  // a fold retires a base whole, and freeing it must not hand malloc one
  // large block.
  struct Base {
    // Size n+1.
    std::pmr::vector<std::uint32_t> offsets{large_array_resource()};
    // The other endpoints, grouped by owner, and their edge ids (empty
    // when the indexed side is non-decreasing: the ids are positions).
    std::pmr::vector<VertexIndex> neighbor{large_array_resource()};
    std::pmr::vector<EdgeIndex> edge{large_array_resource()};
  };
  struct Tail {
    // Ascending, and their offsets (size touched+1).
    std::pmr::vector<VertexIndex> touched{large_array_resource()};
    std::pmr::vector<std::uint32_t> offsets{large_array_resource()};
    // Grouped by touched vertex, and their edge ids.
    std::pmr::vector<VertexIndex> neighbor{large_array_resource()};
    std::pmr::vector<EdgeIndex> edge{large_array_resource()};
    DynamicBitset touched_bits;  // one bit per indexed vertex

    /// The part of touched vertex `v`. Out of line: the walks inline
    /// for_each_part() and rarely take this branch.
    AdjacencyPart part(VertexIndex v) const;
  };

  /// An index over `base` with no tail.
  static CsrIndex over(std::shared_ptr<const Base> base);

  std::shared_ptr<const Base> base_;
  std::shared_ptr<const Tail> tail_;  // null when empty
  std::size_t num_vertices_ = 0;
  // The base arrays, read on every adjacency() call; edge_ is null when
  // the base's edge ids are implicit.
  const std::uint32_t* offsets_ = nullptr;
  const VertexIndex* neighbor_ = nullptr;
  const EdgeIndex* edge_ = nullptr;
  std::size_t base_vertices_ = 0;
  std::size_t base_edges_ = 0;
  // Whether the indexed side is non-decreasing over all num_edges()
  // edges, base and tail: whether build() would store no edge ids.
  bool ordered_ = true;
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

  /// The delta builder's result (gems::mvcc): `base` with its endpoint
  /// arrays grown to `src`/`dst` (the base's edges first) and
  /// `attr_table`. Both CSR directions come from CsrIndex::extend.
  static EdgeType extend(const EdgeType& base, std::size_t num_src_vertices,
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
                                  std::span<const VertexIndex> src,
                                  std::span<const VertexIndex> dst,
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
