// Equality oracles for a graph's CSR indices. The indices are derived
// state: no snapshot holds them, so a proof that two graphs are equal
// (delta == rebuild, recovered == pre-crash, pooled == serial) compares
// snapshot bytes for the stored state and these walks for the indices.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

}  // namespace gems::graph
