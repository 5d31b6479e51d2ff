// Hash partitioning of the attributed graph across simulated compute
// nodes — the data layout question the paper's Sec. I calls out ("the
// difficulty of partitioning graphs across nodes on a cluster").
// Vertices are assigned to ranks by a mixed hash of their (type, index)
// id; a rank "owns" a vertex, its attribute row, and the expansion work
// that starts from it.
#pragma once

#include <vector>

#include "common/bitset.hpp"
#include "common/hash.hpp"
#include "graph/graph_view.hpp"

namespace gems::dist {

class VertexPartition {
 public:
  VertexPartition(const graph::GraphView& graph, std::size_t num_ranks);

  std::size_t num_ranks() const noexcept { return num_ranks_; }

  int owner(graph::VertexTypeId type, graph::VertexIndex v) const noexcept {
    return static_cast<int>(
        mix64((static_cast<std::uint64_t>(type) << 32) | v) % num_ranks_);
  }

  /// Vertices of `type` owned by `rank`.
  const DynamicBitset& owned(int rank, graph::VertexTypeId type) const {
    return owned_[rank].at(type);
  }

  /// Vertices owned by `rank`, indexed by vertex type.
  const std::vector<DynamicBitset>& owned(int rank) const {
    return owned_[rank];
  }

  /// Number of vertices owned by `rank` (load-balance metric).
  std::size_t owned_count(int rank) const;

 private:
  std::size_t num_ranks_;
  // owned_[rank][type] = membership bitset
  std::vector<std::vector<DynamicBitset>> owned_;
};

}  // namespace gems::dist
