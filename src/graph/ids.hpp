// Identifier types for the attributed-graph layer. The paper's partition
// property (Sec. II-A1: vertex types partition V, edge types partition E)
// is guaranteed structurally: an instance id is a (type, dense index) pair,
// so instances of different types can never collide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/hash.hpp"

namespace gems::graph {

using VertexTypeId = std::uint16_t;
using EdgeTypeId = std::uint16_t;
using VertexIndex = std::uint32_t;  // dense within a vertex type
using EdgeIndex = std::uint32_t;    // dense within an edge type

inline constexpr VertexTypeId kInvalidVertexType = 0xffff;
inline constexpr EdgeTypeId kInvalidEdgeType = 0xffff;
inline constexpr VertexIndex kInvalidVertex = 0xffffffffu;

/// An ingest extends a CSR index or a vertex key index by a tail over a
/// shared base (DESIGN.md §5n). Once the tail would hold more than
/// 1/kTailFoldDivisor of the base's entries, it folds into a new base.
inline constexpr std::size_t kTailFoldDivisor = 32;

/// A vertex instance in the overall graph G = (V, E).
struct VertexRef {
  VertexTypeId type = kInvalidVertexType;
  VertexIndex index = kInvalidVertex;

  bool valid() const noexcept { return type != kInvalidVertexType; }
  friend bool operator==(const VertexRef&, const VertexRef&) = default;
  friend auto operator<=>(const VertexRef&, const VertexRef&) = default;
};

/// An edge instance in the overall graph.
struct EdgeRef {
  EdgeTypeId type = kInvalidEdgeType;
  EdgeIndex index = 0;

  bool valid() const noexcept { return type != kInvalidEdgeType; }
  friend bool operator==(const EdgeRef&, const EdgeRef&) = default;
  friend auto operator<=>(const EdgeRef&, const EdgeRef&) = default;
};

struct VertexRefHash {
  std::size_t operator()(const VertexRef& v) const noexcept {
    return mix64((static_cast<std::uint64_t>(v.type) << 32) | v.index);
  }
};

struct EdgeRefHash {
  std::size_t operator()(const EdgeRef& e) const noexcept {
    return mix64((static_cast<std::uint64_t>(e.type) << 32) | e.index);
  }
};

}  // namespace gems::graph
