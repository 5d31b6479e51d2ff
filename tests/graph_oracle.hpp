// Equality oracles for a graph. The graph is derived state: a snapshot
// holds the tables and declarations it is built from, not the graph, so a
// proof that two graphs are equal (delta == rebuild, recovered ==
// pre-crash, pooled == serial) compares snapshot bytes for the tables and
// expect_same_graph for the vertex types, the edge types and their
// indices.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_view.hpp"

namespace gems::graph {

/// `got`'s adjacency, degrees and size equal `flat`'s, vertex by vertex.
/// Returns the most parts any vertex of `got` gave.
inline std::size_t expect_same_adjacency(const CsrIndex& got,
                                         const CsrIndex& flat) {
  EXPECT_EQ(got.num_vertices(), flat.num_vertices());
  if (got.num_vertices() != flat.num_vertices()) return 0;
  EXPECT_EQ(got.num_edges(), flat.num_edges());
  EXPECT_EQ(got.byte_size(), flat.byte_size());
  std::size_t most_parts = 0;
  for (VertexIndex v = 0; v < flat.num_vertices(); ++v) {
    std::vector<std::pair<VertexIndex, EdgeIndex>> want;
    std::vector<std::pair<VertexIndex, EdgeIndex>> have;
    flat.for_each_part(v, [&](const AdjacencyPart& part) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        want.emplace_back(part.neighbor(i), part.edge(i));
      }
    });
    std::size_t parts = 0;
    got.for_each_part(v, [&](const AdjacencyPart& part) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        have.emplace_back(part.neighbor(i), part.edge(i));
      }
      ++parts;
    });
    most_parts = std::max(most_parts, parts);
    EXPECT_EQ(have, want) << "vertex " << v;
    EXPECT_EQ(got.degree(v), flat.degree(v)) << "vertex " << v;
    if (have != want) break;
  }
  return most_parts;
}

/// Whether `csr`'s base has the forms build() gives for its edges: it has
/// no tail, and it is not a unit base that extend() kept while the
/// indexed side grew past its edges (byte_size() then counts offsets).
/// An extended index whose base predates its latest edges may differ.
inline bool has_build_forms(const CsrIndex& csr) {
  return csr.tail_edges() == 0 && (!csr.unit_base() || csr.byte_size() == 0);
}

/// The base forms of `got` and `want` agree.
inline void expect_same_forms(const CsrIndex& got, const CsrIndex& want) {
  EXPECT_EQ(got.ordered_base(), want.ordered_base());
  EXPECT_EQ(got.unit_base(), want.unit_base());
  EXPECT_EQ(got.implicit_neighbors(), want.implicit_neighbors());
}

/// Every edge type of `got` equals `want`'s: its edge count and endpoint
/// sizes, and in both directions the adjacency, degrees and size vertex by
/// vertex, and the base forms wherever both bases have build()'s forms.
/// Returns the number of directions whose forms were compared.
inline std::size_t expect_same_edges(const GraphView& got,
                                     const GraphView& want) {
  EXPECT_EQ(got.num_edge_types(), want.num_edge_types());
  if (got.num_edge_types() != want.num_edge_types()) return 0;
  std::size_t forms = 0;
  for (EdgeTypeId id = 0; id < want.num_edge_types(); ++id) {
    const EdgeType& g = got.edge_type(id);
    const EdgeType& w = want.edge_type(id);
    SCOPED_TRACE("edge type " + w.name());
    EXPECT_EQ(g.name(), w.name());
    EXPECT_EQ(g.num_edges(), w.num_edges());
    EXPECT_EQ(g.source_is_identity(), w.source_is_identity());
    EXPECT_EQ(g.endpoint_bytes(), w.endpoint_bytes());
    for (const bool forward : {true, false}) {
      SCOPED_TRACE(forward ? "forward" : "reverse");
      const CsrIndex& gi = forward ? g.forward() : g.reverse();
      const CsrIndex& wi = forward ? w.forward() : w.reverse();
      expect_same_adjacency(gi, wi);
      if (has_build_forms(gi) && has_build_forms(wi)) {
        expect_same_forms(gi, wi);
        ++forms;
      }
    }
  }
  return forms;
}

/// Every vertex type of `got` equals `want`'s: its name, vertex count,
/// representative rows, matching rows, one-to-one and identity-row flags
/// and size, and the vertex find_by_key gives for every source row.
inline void expect_same_vertices(const GraphView& got, const GraphView& want) {
  EXPECT_EQ(got.num_vertex_types(), want.num_vertex_types());
  if (got.num_vertex_types() != want.num_vertex_types()) return;
  for (VertexTypeId id = 0; id < want.num_vertex_types(); ++id) {
    const VertexType& g = got.vertex_type(id);
    const VertexType& w = want.vertex_type(id);
    SCOPED_TRACE("vertex type " + w.name());
    EXPECT_EQ(g.name(), w.name());
    EXPECT_EQ(g.one_to_one(), w.one_to_one());
    EXPECT_EQ(g.identity_rows(), w.identity_rows());
    EXPECT_EQ(g.byte_size(), w.byte_size());
    EXPECT_EQ(g.matching_rows(), w.matching_rows());
    EXPECT_EQ(g.num_vertices(), w.num_vertices());
    if (g.num_vertices() != w.num_vertices()) continue;
    for (VertexIndex v = 0; v < w.num_vertices(); ++v) {
      ASSERT_EQ(g.representative_row(v), w.representative_row(v))
          << "vertex " << v;
    }
    EXPECT_EQ(g.source().num_rows(), w.source().num_rows());
    if (g.source().num_rows() != w.source().num_rows()) continue;
    for (storage::RowIndex r = 0; r < w.source().num_rows(); ++r) {
      ASSERT_EQ(g.find_by_key(g.source(), r, g.key_columns()),
                w.find_by_key(w.source(), r, w.key_columns()))
          << "row " << r;
    }
  }
}

/// Cell (r, c) of `t` as stored: NULL, or the value's bits (a string's
/// pool id, which recovery keeps). Reads no string pool, so a graph whose
/// database is gone still compares.
inline std::optional<std::uint64_t> stored_cell(const storage::Table& t,
                                                storage::RowIndex r,
                                                storage::ColumnIndex c) {
  const storage::Column& col = t.column(c);
  if (col.is_null(r)) return std::nullopt;
  switch (col.type().kind) {
    case storage::TypeKind::kDouble:
      return std::bit_cast<std::uint64_t>(col.double_at(r));
    case storage::TypeKind::kVarchar:
      return col.string_at(r);
    default:
      return static_cast<std::uint64_t>(col.int64_at(r));
  }
}

/// `got`'s cells equal `want`'s, row by row.
inline void expect_same_cells(const storage::Table& got,
                              const storage::Table& want) {
  EXPECT_EQ(got.schema(), want.schema());
  EXPECT_EQ(got.num_rows(), want.num_rows());
  if (got.schema() != want.schema() || got.num_rows() != want.num_rows()) {
    return;
  }
  for (storage::RowIndex r = 0; r < want.num_rows(); ++r) {
    for (storage::ColumnIndex c = 0; c < want.num_columns(); ++c) {
      ASSERT_EQ(stored_cell(got, r, c), stored_cell(want, r, c))
          << "row " << r << ", column " << c;
    }
  }
}

/// `got` equals `want`: expect_same_vertices, each edge type's attribute
/// cells, and expect_same_edges, whose count of compared directions it
/// returns.
inline std::size_t expect_same_graph(const GraphView& got,
                                     const GraphView& want) {
  expect_same_vertices(got, want);
  if (got.num_edge_types() == want.num_edge_types()) {
    for (EdgeTypeId id = 0; id < want.num_edge_types(); ++id) {
      const storage::Table* g = got.edge_type(id).attr_table();
      const storage::Table* w = want.edge_type(id).attr_table();
      SCOPED_TRACE("attributes of edge type " + want.edge_type(id).name());
      EXPECT_EQ(g == nullptr, w == nullptr);
      if (g != nullptr && w != nullptr) expect_same_cells(*g, *w);
    }
  }
  return expect_same_edges(got, want);
}

}  // namespace gems::graph
