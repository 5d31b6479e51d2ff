#include "graph/edge_type.hpp"

#include <array>

#include "common/check.hpp"

namespace gems::graph {

namespace {

/// Whether entry i of `ids` is first + i for every entry.
bool is_identity(std::span<const VertexIndex> ids, std::size_t first) {
  bool same = true;
  for (std::size_t i = 0; i < ids.size(); ++i) same &= ids[i] == first + i;
  return same;
}

/// The same over an endpoint array, stopping at the first chunk that
/// breaks it.
bool is_identity(const EndpointArray& ids, std::size_t first) {
  std::array<VertexIndex, kChunkRows> buf;
  for (std::size_t i = 0; i < ids.size(); i += kChunkRows) {
    const std::size_t k = std::min(kChunkRows, ids.size() - i);
    if (!is_identity({ids.lanes(i, k, buf.data()), k}, first + i)) {
      return false;
    }
  }
  return true;
}

void append_all(EndpointArray& to, const EndpointArray& from) {
  from.for_each_piece(0, from.size(),
                      [&](std::span<const VertexIndex> piece, std::size_t) {
                        to.append(piece.data(), piece.size());
                      });
}

}  // namespace

AdjacencyPart CsrIndex::Tail::part(VertexIndex v) const {
  const auto k = static_cast<std::size_t>(
      std::lower_bound(touched.begin(), touched.end(), v) - touched.begin());
  GEMS_DCHECK(k < touched.size() && touched[k] == v);
  const std::uint32_t begin = offsets[k];
  const std::uint32_t count = offsets[k + 1] - begin;
  return {neighbor.data() + begin, edge.data() + begin, 0, count};
}

CsrIndex CsrIndex::over(std::shared_ptr<Base> base, std::size_t num_edges,
                        bool identity) {
  CsrIndex out;
  const bool ordered = base->edge.empty() && base->neighbor.empty();
  if (ordered) {
    // Null when the neighbors are implicit.
    if (base->other.size() > 0) out.other_ = &base->other;
  } else {
    out.neighbor_ = base->neighbor.data();
    out.edge_ = base->edge.data();
  }
  out.base_edges_ = num_edges;
  if (base->offsets.empty()) {
    out.base_vertices_ = out.base_edges_;
  } else {
    out.offsets_ = base->offsets.data();
    out.base_vertices_ = base->offsets.size() - 1;
  }
  out.num_vertices_ = out.base_vertices_;
  out.ordered_ = ordered;
  out.identity_ = identity;
  out.base_ = std::move(base);
  return out;
}

CsrIndex CsrIndex::build(std::size_t n, EdgeEnd indexed, EdgeEnd other,
                         std::pmr::memory_resource* scratch) {
  GEMS_CHECK(indexed.size() == other.size());
  const std::size_t edges = indexed.size();
  auto base = std::make_shared<Base>();
  // The other side's array, when it is stored: an ordered base reads it.
  auto keep_other = [&] {
    if (other.array() != nullptr) base->other = *other.array();
  };
  // Whether edge e indexes vertex e: known for an identity side, else
  // found before the degree count. A unit direction needs neither the
  // count nor offsets.
  const EndpointArray* from_array = indexed.array();
  const bool identity = from_array == nullptr || is_identity(*from_array, 0);
  if (identity) {
    // Vertex v < edges has edge v alone, and the rest have none: unit
    // when there are no more vertices than edges.
    if (n != edges) {
      GEMS_DCHECK(n > edges);
      base->offsets.resize(n + 1);
      for (std::size_t v = 0; v <= n; ++v) {
        base->offsets[v] = static_cast<std::uint32_t>(std::min(v, edges));
      }
    }
    keep_other();
    return over(std::move(base), edges, true);
  }
  base->offsets.assign(n + 1, 0);
  bool ordered = true;
  VertexIndex last = 0;
  from_array->for_each_piece(
      0, edges, [&](std::span<const VertexIndex> piece, std::size_t) {
        for (const VertexIndex v : piece) {
          GEMS_DCHECK(v < n);
          ++base->offsets[v + 1];
          ordered &= v >= last;
          last = v;
        }
      });
  for (std::size_t i = 1; i <= n; ++i) {
    base->offsets[i] += base->offsets[i - 1];
  }
  if (ordered) {
    // Edge e sits at position e: the neighbors are `other` in order.
    keep_other();
    return over(std::move(base), edges, false);
  }

  base->neighbor.resize(edges);
  base->edge.resize(edges);
  std::pmr::vector<std::uint32_t> cursor(base->offsets.begin(),
                                         base->offsets.end() - 1, scratch);
  // Both arrays chunk identically, so a piece of each holds the same edges.
  const EndpointArray* to_array = other.array();
  std::array<VertexIndex, kChunkRows> to_buf;
  from_array->for_each_piece(
      0, edges, [&](std::span<const VertexIndex> from, std::size_t first) {
        const VertexIndex* to =
            to_array != nullptr
                ? to_array->lanes(first, from.size(), to_buf.data())
                : nullptr;
        for (std::size_t i = 0; i < from.size(); ++i) {
          const std::uint32_t pos = cursor[from[i]]++;
          const auto e = static_cast<EdgeIndex>(first + i);
          base->neighbor[pos] = to != nullptr ? to[i] : e;
          base->edge[pos] = e;
        }
      });
  return over(std::move(base), edges, false);
}

CsrIndex CsrIndex::extend(const CsrIndex& prev, std::size_t n,
                          EdgeEnd indexed, EdgeEnd other,
                          std::pmr::memory_resource* scratch) {
  GEMS_CHECK(indexed.size() == other.size());
  GEMS_CHECK(n >= prev.num_vertices() && indexed.size() >= prev.num_edges());
  const std::size_t first = prev.num_edges();
  const std::size_t tail_edges = prev.tail_edges() + indexed.size() - first;
  if (tail_edges * kTailFoldDivisor > prev.base_edges_) {
    return build(n, indexed, other, scratch);
  }
  CsrIndex out = prev;
  out.num_vertices_ = n;
  out.tail_ = nullptr;
  if (tail_edges == 0) return out;
  // The appended edges keep the whole sequence ordered when they are
  // non-decreasing from the last previous edge on.
  for (std::size_t e = std::max<std::size_t>(first, 1);
       out.ordered_ && e < indexed.size(); ++e) {
    out.ordered_ = indexed[e - 1] <= indexed[e];
  }
  // And they keep it unit when each indexes its own position.
  for (std::size_t e = first; out.identity_ && e < indexed.size(); ++e) {
    out.identity_ = indexed[e] == e;
  }

  // The appended edges as (indexed vertex, edge id), sorted: grouped by
  // vertex, each group in edge order.
  std::pmr::vector<std::pair<VertexIndex, EdgeIndex>> added(scratch);
  added.reserve(indexed.size() - first);
  for (std::size_t e = first; e < indexed.size(); ++e) {
    added.emplace_back(indexed[e], static_cast<EdgeIndex>(e));
  }
  std::sort(added.begin(), added.end());

  // Merge the previous tail's groups with the appended ones, vertex by
  // vertex; a vertex's older tail edges come first.
  static const Tail kEmpty;
  const Tail& old = prev.tail_ != nullptr ? *prev.tail_ : kEmpty;
  auto tail = std::make_shared<Tail>();
  tail->touched.reserve(old.touched.size() + added.size());
  tail->offsets.reserve(old.touched.size() + added.size() + 1);
  tail->neighbor.reserve(tail_edges);
  tail->edge.reserve(tail_edges);
  tail->touched_bits = old.touched_bits;
  tail->touched_bits.resize(n);
  tail->offsets.push_back(0);
  std::size_t k = 0;
  std::size_t i = 0;
  while (k < old.touched.size() || i < added.size()) {
    const VertexIndex v = std::min(
        k < old.touched.size() ? old.touched[k] : kInvalidVertex,
        i < added.size() ? added[i].first : kInvalidVertex);
    if (k < old.touched.size() && old.touched[k] == v) {
      const std::uint32_t b = old.offsets[k];
      const std::uint32_t e = old.offsets[k + 1];
      tail->neighbor.insert(tail->neighbor.end(), old.neighbor.begin() + b,
                            old.neighbor.begin() + e);
      tail->edge.insert(tail->edge.end(), old.edge.begin() + b,
                        old.edge.begin() + e);
      ++k;
    }
    for (; i < added.size() && added[i].first == v; ++i) {
      tail->neighbor.push_back(other[added[i].second]);
      tail->edge.push_back(added[i].second);
    }
    tail->touched.push_back(v);
    tail->offsets.push_back(static_cast<std::uint32_t>(tail->neighbor.size()));
    tail->touched_bits.set(v);
  }
  out.tail_ = std::move(tail);
  return out;
}

EdgeType EdgeType::assemble(EdgeTypeId id, std::string name,
                            VertexTypeId src_type, VertexTypeId dst_type,
                            std::size_t num_src_vertices,
                            std::size_t num_dst_vertices,
                            EndpointArray src, EndpointArray dst,
                            storage::TablePtr attr_table,
                            std::pmr::memory_resource* scratch) {
  GEMS_CHECK(src.size() == dst.size());
  GEMS_CHECK(attr_table == nullptr || attr_table->num_rows() == src.size());
  EdgeType et;
  et.id_ = id;
  et.name_ = std::move(name);
  et.src_type_ = src_type;
  et.dst_type_ = dst_type;
  et.src_identity_ = is_identity(src, 0);
  if (!et.src_identity_) et.src_ = std::move(src);
  et.dst_ = std::move(dst);
  et.attr_table_ = std::move(attr_table);
  // Both directions are always built (the paper builds the reverse index
  // "when memory space on the cluster is available"; in-process we always
  // have it, and bench_planner_ablation quantifies what it buys).
  et.forward_ =
      CsrIndex::build(num_src_vertices, et.source_end(), et.dst_, scratch);
  et.reverse_ =
      CsrIndex::build(num_dst_vertices, et.dst_, et.source_end(), scratch);
  return et;
}

EdgeType EdgeType::extend(const EdgeType& base, std::size_t num_src_vertices,
                          std::size_t num_dst_vertices,
                          const EndpointArray& added_src,
                          const EndpointArray& added_dst,
                          storage::TablePtr attr_table,
                          std::pmr::memory_resource* scratch) {
  GEMS_CHECK(added_src.size() == added_dst.size());
  const std::size_t first = base.num_edges();
  GEMS_CHECK(attr_table == nullptr ||
             attr_table->num_rows() == first + added_src.size());
  // Copies share the base's sealed chunks.
  EdgeType et = base;
  et.attr_table_ = std::move(attr_table);
  append_all(et.dst_, added_dst);
  const bool identity = base.src_identity_ && is_identity(added_src, first);
  if (base.src_identity_ && !identity) {
    // The first appended edge whose source is not its id: write the
    // identity out, once.
    for_each_identity_piece<VertexIndex>(
        first, [&](std::span<const VertexIndex> piece) {
          et.src_.append(piece.data(), piece.size());
        });
    et.src_identity_ = false;
  }
  if (!identity) append_all(et.src_, added_src);
  et.forward_ = CsrIndex::extend(base.forward_, num_src_vertices,
                                 et.source_end(), et.dst_, scratch);
  et.reverse_ = CsrIndex::extend(base.reverse_, num_dst_vertices, et.dst_,
                                 et.source_end(), scratch);
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
