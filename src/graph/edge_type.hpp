// Edge types — relations between two vertex types (paper Eq. 2):
//   E(a1..an) = (S ⋈ σ_φ(A)) ⋈ T
// materialized as parallel endpoint arrays plus *bidirectional* CSR
// indices. An endpoint array is a storage::ColumnData<VertexIndex> with
// every row valid: kChunkRows-row chunks, each narrowed to 0, 1, 2 or 4
// bytes a lane when it seals, and shared with the previous epoch by an
// ingest's copy (DESIGN.md §5n). The paper (Sec. III-B) calls the edge
// index "a fundamental data structure": the forward index supports
// S -E-> T steps, the reverse index lets the planner run a step
// right-to-left, which is what makes non-lexical execution orders
// possible.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/lane_codec.hpp"
#include "common/large_array.hpp"
#include "common/status.hpp"
#include "graph/ids.hpp"
#include "storage/column_data.hpp"
#include "storage/table.hpp"

namespace gems::graph {

/// An edge type's endpoint array, or an ingest's appended endpoints.
using EndpointArray = storage::ColumnData<VertexIndex>;

/// One piece of a vertex's adjacency: the other endpoints of some of its
/// incident edges, and their edge ids. Each is an array or, when its
/// pointer is null, implicit. Implicit ids: the i-th edge is `first_edge +
/// i`. Implicit neighbors: the other side is the identity (edge e's other
/// endpoint is e), so the i-th neighbor is the i-th edge. A neighbor array
/// may be a buffer that lives only as long as the call that passes the
/// part.
struct AdjacencyPart {
  const VertexIndex* neighbors = nullptr;
  const EdgeIndex* edge_ids = nullptr;
  EdgeIndex first_edge = 0;
  std::uint32_t count = 0;

  std::size_t size() const noexcept { return count; }
  VertexIndex neighbor(std::size_t i) const noexcept {
    return neighbors != nullptr ? neighbors[i] : edge(i);
  }
  EdgeIndex edge(std::size_t i) const noexcept {
    return edge_ids != nullptr ? edge_ids[i]
                               : first_edge + static_cast<EdgeIndex>(i);
  }
};

/// The vertex at one end of each edge of a type, indexed by edge: an
/// endpoint array, or the identity (edge e's vertex is e), which is not
/// stored. A foreign key's source side is the identity: row e of the
/// referencing table is both source vertex e and edge e.
class EdgeEnd {
 public:
  EdgeEnd(const EndpointArray& array) noexcept  // NOLINT
      : array_(&array), size_(array.size()) {}
  static EdgeEnd identity(std::size_t num_edges) noexcept {
    EdgeEnd out;
    out.size_ = num_edges;
    return out;
  }

  std::size_t size() const noexcept { return size_; }
  /// The endpoint array; null for the identity.
  const EndpointArray* array() const noexcept { return array_; }
  VertexIndex operator[](std::size_t e) const noexcept {
    return array_ != nullptr ? (*array_)[e] : static_cast<VertexIndex>(e);
  }

 private:
  EdgeEnd() = default;

  const EndpointArray* array_ = nullptr;
  std::size_t size_ = 0;
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
/// The base stores only what the endpoint arrays do not already hold.
/// When the indexed side is non-decreasing over the base's edges (the
/// direction is *ordered*), a base entry's edge id is its position and
/// its neighbor is the other endpoint of that edge: the base stores no
/// edge ids and no neighbors, and reads the neighbors from a copy of the
/// other endpoint array, which shares that array's sealed chunks; a
/// narrow chunk's neighbors are widened as they are read. When the
/// other side is the identity, which the edge type does not store, the
/// base reads nothing: entry i's neighbor is its edge id, i. When edge e's
/// indexed vertex is e and the indexed side has as many vertices as edges
/// (the direction is *unit*), vertex v's base entry is entry v, and the
/// base stores no offsets either. The tail always stores its neighbors and
/// edge ids.
class CsrIndex {
 public:
  /// Builds from the edges' ends: edge e runs indexed[e] -> other[e];
  /// `n` is the vertex count of the indexed side. The fill cursor comes
  /// from `scratch`. The result has an empty tail.
  static CsrIndex build(std::size_t n, EdgeEnd indexed, EdgeEnd other,
                        std::pmr::memory_resource* scratch);

  /// The index over the same arrays after edges [prev.num_edges(),
  /// indexed.size()) were appended and the indexed side grew to `n`
  /// vertices. Shares `prev`'s base and builds a new tail in O(tail +
  /// delta). Once the tail would exceed 1/kTailFoldDivisor of the base's
  /// edges it folds instead: the result is a fresh build().
  static CsrIndex extend(const CsrIndex& prev, std::size_t n,
                         EdgeEnd indexed, EdgeEnd other,
                         std::pmr::memory_resource* scratch);

  std::size_t num_vertices() const noexcept { return num_vertices_; }

  std::size_t num_edges() const noexcept {
    return base_edges_ + tail_edges();
  }

  /// Edges in the tail (the `graph.csr.tail_edges` gauge).
  std::size_t tail_edges() const noexcept {
    return tail_ == nullptr ? 0 : tail_->neighbor.size();
  }

  /// Calls fn(const AdjacencyPart&) with v's base parts, if v is a base
  /// vertex, then with its tail part, if it has one; concatenated, the
  /// parts list v's edges in ascending edge id order, as one flat CSR
  /// would. An ordered base gives one part per chunk of the other
  /// endpoint array that v's group touches, and none for an empty group
  /// (a part of a narrow chunk reads a buffer on the stack); over an
  /// identity other side it gives one part with implicit neighbors. Each
  /// call site inlines one copy of `fn` per kind of part (unit, flat, view
  /// piece, implicit, tail), so each runs with its neighbor and edge-id
  /// forms and, for a unit part, its single entry known (EXPERIMENTS.md
  /// E-CSRTAIL, E-SHAREDNEIGHBORS, E-IDENTITYARRAYS).
  template <typename Fn>
  void for_each_part(VertexIndex v, Fn&& fn) const {
    GEMS_DCHECK(v < num_vertices_);
    if (v < base_vertices_) {
      if (offsets_ == nullptr && other_ != nullptr) {
        // Unit: v's one base entry is entry v.
        const VertexIndex u = (*other_)[v];
        fn(AdjacencyPart{&u, nullptr, v, 1});
      } else if (edge_ != nullptr) {
        const std::uint32_t begin = offsets_[v];
        fn(AdjacencyPart{stored(neighbor_ + begin), edge_ + begin, begin,
                         offsets_[v + 1] - begin});
      } else if (other_ != nullptr) {
        for_each_view_part(offsets_[v], offsets_[v + 1] - offsets_[v], fn);
      } else {
        // Ordered over an identity other side: neighbor i is edge i.
        const std::uint32_t begin = base_offset(v);
        const std::uint32_t end = base_offset(v + 1);
        if (end > begin) {
          fn(AdjacencyPart{nullptr, nullptr, begin, end - begin});
        }
      }
    }
    if (tail_ != nullptr && tail_->touched_bits.test(v)) {
      AdjacencyPart part = tail_->part(v);
      part.neighbors = stored(part.neighbors);
      fn(part);
    }
  }

  /// for_each_part over every vertex whose bit is set in `vertices`, in
  /// ascending order; the matcher's frontier walks call it. An ordered
  /// base with a stored other side reads its neighbors through a window
  /// that moves forward: when a 64-vertex word's entries are not all in
  /// it, one lanes() call reads from the word's first entry to the end of
  /// that entry's chunk (or to the word's last entry, if further), in
  /// place or widened into a buffer here. A narrow chunk is so widened
  /// about once per walk, not once per vertex, and a vertex's base part
  /// is one part however many chunks its group spans, unless the word's
  /// entries exceed a chunk. A flat base, or one with implicit neighbors,
  /// reads no chunk: it calls for_each_part per vertex (EXPERIMENTS.md
  /// E-ONECHUNK).
  template <typename Fn>
  __attribute__((always_inline)) void for_each_part_of(
      const DynamicBitset& vertices, Fn&& fn) const {
    GEMS_DCHECK(vertices.size() <= num_vertices_);
    if (edge_ != nullptr || other_ == nullptr) {
      // Flat, or implicit neighbors: nothing to widen.
      vertices.for_each([&](std::size_t v) __attribute__((always_inline)) {
        for_each_part(static_cast<VertexIndex>(v), fn);
      });
      return;
    }
    std::array<VertexIndex, kChunkRows> buf;
    // Base entries [lo, hi) are at entries[0, hi - lo).
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    const VertexIndex* entries = nullptr;
    const std::span<const std::uint64_t> words = vertices.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      if (word == 0) continue;
      const std::size_t first = w * 64;
      // The entries of the word's set base vertices: [need_lo, need_hi).
      const std::uint32_t need_lo =
          base_offset(std::min(first + __builtin_ctzll(word), base_vertices_));
      const std::uint32_t need_hi = base_offset(
          std::min(first + 64 - __builtin_clzll(word), base_vertices_));
      GEMS_DCHECK(need_lo >= lo);  // words ascend
      if (need_hi > hi) {
        // Read on to the end of need_lo's chunk: the next words' entries
        // follow.
        const std::size_t end = std::min<std::size_t>(
            base_edges_, std::max<std::size_t>(
                             need_hi, (need_lo / kChunkRows + 1) * kChunkRows));
        lo = need_lo;
        hi = static_cast<std::uint32_t>(end);
        entries = end - lo <= kChunkRows
                      ? other_->lanes(lo, end - lo, buf.data())
                      : nullptr;
        if (entries == nullptr) hi = lo;
      }
      while (word != 0) {
        const auto v =
            static_cast<VertexIndex>(first + __builtin_ctzll(word));
        word &= word - 1;
        if (v < base_vertices_) {
          if (offsets_ == nullptr) {
            // Unit: v's one base entry is entry v.
            fn(AdjacencyPart{stored(entries + (v - lo)), nullptr, v, 1});
          } else {
            const std::uint32_t begin = offsets_[v];
            const std::uint32_t count = offsets_[v + 1] - begin;
            if (entries == nullptr) [[unlikely]] {
              for_each_view_part(begin, count, fn);
            } else if (count > 0) {
              fn(AdjacencyPart{stored(entries + (begin - lo)), nullptr,
                               begin, count});
            }
          }
        }
        if (tail_ != nullptr && tail_->touched_bits.test(v)) {
          AdjacencyPart part = tail_->part(v);
          part.neighbors = stored(part.neighbors);
          fn(part);
        }
      }
    }
  }

  std::uint32_t degree(VertexIndex v) const {
    std::uint32_t d = 0;
    for_each_part(v, [&d](const AdjacencyPart& part) {
      d += part.count;
    });
    return d;
  }

  /// Bytes of the flat index build() would give for the same edges, so an
  /// index built or extended to the same state reports the same size (the
  /// `graph.csr.bytes` gauge). That index stores offsets unless the
  /// direction is unit over all the edges, and neighbors and edge ids
  /// unless it is ordered over all the edges.
  std::size_t byte_size() const noexcept {
    return (unit() ? 0 : (num_vertices_ + 1) * sizeof(std::uint32_t)) +
           (ordered_ ? 0
                     : num_edges() * (sizeof(VertexIndex) + sizeof(EdgeIndex)));
  }

  /// True when the base stores no neighbors and no edge ids: it reads the
  /// other endpoint array, or nothing when that side is the identity.
  bool ordered_base() const noexcept { return edge_ == nullptr; }

  /// True when the base's neighbors are implicit: ordered over an identity
  /// other side.
  bool implicit_neighbors() const noexcept {
    return edge_ == nullptr && other_ == nullptr && base_edges_ > 0;
  }

  /// True when the base stores no offsets either.
  bool unit_base() const noexcept { return offsets_ == nullptr; }

  /// True when both indices read the same base arrays.
  bool shares_base(const CsrIndex& other) const noexcept {
    return base_ == other.base_;
  }

 private:
  // The offsets, neighbor and edge arrays come from
  // large_array_resource() (DESIGN.md §5m): a fold retires a base whole,
  // and freeing it must not hand malloc one large block.
  struct Base {
    // Size n+1; empty when the direction is unit.
    std::pmr::vector<std::uint32_t> offsets{large_array_resource()};
    // The other endpoints, grouped by owner, and their edge ids; both
    // empty when the direction is ordered.
    std::pmr::vector<VertexIndex> neighbor{large_array_resource()};
    std::pmr::vector<EdgeIndex> edge{large_array_resource()};
    // When ordered, the other endpoint array, its sealed chunks shared
    // and only its tail copied: entry i's neighbor is other[i]. Empty
    // when the other side is the identity.
    EndpointArray other;
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

  /// An index over `base`, which holds `num_edges` edges, with no tail.
  /// `identity` says whether edge e's indexed vertex is e for every base
  /// edge.
  static CsrIndex over(std::shared_ptr<Base> base, std::size_t num_edges,
                       bool identity);

  /// `p`, which is not null: a part body inlined for a stored neighbor
  /// array then compiles without its implicit-neighbor test.
  static const VertexIndex* stored(const VertexIndex* p) noexcept {
    if (p == nullptr) __builtin_unreachable();
    return p;
  }

  /// Where vertex v's base group starts; v <= base_vertices_.
  std::uint32_t base_offset(std::size_t v) const noexcept {
    return offsets_ != nullptr ? offsets_[v] : static_cast<std::uint32_t>(v);
  }

  /// Calls fn(const AdjacencyPart&) over entries [begin, begin + count)
  /// of an ordered base, one part per chunk piece, a narrow one widened
  /// into a buffer on the stack.
  template <typename Fn>
  void for_each_view_part(std::uint32_t begin, std::uint32_t count,
                          Fn& fn) const {
    other_->for_each_piece(
        begin, begin + count,
        [&](std::span<const VertexIndex> piece, std::size_t offset) {
          fn(AdjacencyPart{stored(piece.data()), nullptr,
                           static_cast<EdgeIndex>(begin + offset),
                           static_cast<std::uint32_t>(piece.size())});
        });
  }

  /// Whether build() over all num_edges() edges would store no offsets.
  bool unit() const noexcept {
    return identity_ && num_vertices_ == num_edges();
  }

  std::shared_ptr<const Base> base_;
  std::shared_ptr<const Tail> tail_;  // null when empty
  std::size_t num_vertices_ = 0;
  // The base arrays, read on every for_each_part() call: offsets_ is null
  // when the base is unit, neighbor_ and edge_ when it is ordered, and
  // other_ is read only then, and is null when the neighbors are
  // implicit.
  const std::uint32_t* offsets_ = nullptr;
  const VertexIndex* neighbor_ = nullptr;
  const EdgeIndex* edge_ = nullptr;
  const EndpointArray* other_ = nullptr;
  std::size_t base_vertices_ = 0;
  std::size_t base_edges_ = 0;
  // Whether the indexed side is non-decreasing over all num_edges()
  // edges, base and tail: whether build() would store no neighbors and
  // no edge ids.
  bool ordered_ = true;
  // Whether edge e's indexed vertex is e for all num_edges() edges.
  bool identity_ = true;
};

/// An edge type stores its target endpoint array, and its source array
/// unless the source side is the identity (src[e] == e for every edge, as
/// for a foreign key): then source_vertex(e) is e and nothing is stored.
/// Whether it is stored is a function of the edges, so a type built or
/// extended to the same edges stores the same arrays.
class EdgeType {
 public:
  /// Assembled by GraphBuilder after it runs the Eq. 2 joins. `attr_table`
  /// (may be null) holds one row per edge, in edge order — the attributes
  /// from the `from table` clause. The CSR builds' cursors come from
  /// `scratch`. An identity `src` is dropped.
  static EdgeType assemble(EdgeTypeId id, std::string name,
                           VertexTypeId src_type, VertexTypeId dst_type,
                           std::size_t num_src_vertices,
                           std::size_t num_dst_vertices,
                           EndpointArray src, EndpointArray dst,
                           storage::TablePtr attr_table,
                           std::pmr::memory_resource* scratch);

  /// The delta builder's result (gems::mvcc): `base` with the edges
  /// `added_src[i]` -> `added_dst[i]` appended as edges base.num_edges() +
  /// i, and `attr_table` (the base's rows first). An identity source side
  /// stays implicit while each appended edge e has source e; the first
  /// that does not materializes the array, once, in O(edges). Both CSR
  /// directions come from CsrIndex::extend.
  static EdgeType extend(const EdgeType& base, std::size_t num_src_vertices,
                         std::size_t num_dst_vertices,
                         const EndpointArray& added_src,
                         const EndpointArray& added_dst,
                         storage::TablePtr attr_table,
                         std::pmr::memory_resource* scratch);

  EdgeTypeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  VertexTypeId source_type() const noexcept { return src_type_; }
  VertexTypeId target_type() const noexcept { return dst_type_; }

  std::size_t num_edges() const noexcept { return dst_.size(); }

  VertexIndex source_vertex(EdgeIndex e) const {
    GEMS_CHECK_MSG(e < num_edges(), "edge index out of range");
    return src_identity_ ? e : src_[e];
  }
  VertexIndex target_vertex(EdgeIndex e) const {
    GEMS_CHECK_MSG(e < num_edges(), "edge index out of range");
    return dst_[e];
  }
  /// True when the source side is the identity and not stored.
  bool source_is_identity() const noexcept { return src_identity_; }

  /// Bytes of the stored endpoint arrays (the `graph.endpoints.bytes`
  /// gauge): the target array, and the source array unless it is the
  /// identity. A function of the edges alone, as byte_size() is.
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

 private:
  EdgeType() = default;

  EdgeEnd source_end() const noexcept {
    return src_identity_ ? EdgeEnd::identity(num_edges()) : EdgeEnd(src_);
  }

  EdgeTypeId id_ = kInvalidEdgeType;
  std::string name_;
  VertexTypeId src_type_ = kInvalidVertexType;
  VertexTypeId dst_type_ = kInvalidVertexType;
  EndpointArray src_;  // empty when src_identity_
  EndpointArray dst_;
  bool src_identity_ = false;
  storage::TablePtr attr_table_;
  CsrIndex forward_;
  CsrIndex reverse_;
};

}  // namespace gems::graph
