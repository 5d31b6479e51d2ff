// Lowers a parsed graph query into constraint networks (one per or-group)
// plus a step registry used to resolve select targets. Binding here is the
// backend's dynamic counterpart of the front-end static analyzer: it
// re-resolves names against the live graph and produces evaluated-form
// predicates.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/status.hpp"
#include "exec/network.hpp"

namespace gems::exec {

/// Where a select target points.
struct StepRef {
  bool is_edge = false;
  int index = -1;  // var index or edge-constraint index
};

struct LoweredQuery {
  // One network per or-group (Eq. 9: results are unioned).
  std::vector<ConstraintNetwork> networks;
  // Per network: each VertexStep and EdgeStep of its and-group outside
  // regex groups -> its variable or constraint. A select target finds its
  // step through graql::StepNames (graql::graph_query_outputs for tables).
  std::vector<std::map<const void*, StepRef>> step_refs;
};

/// Resolver for Fig. 12 result seeding (`resQ1.Vn`).
using SubgraphResolver =
    std::function<Result<SubgraphPtr>(const std::string&)>;

/// Lowers `stmt`'s path patterns. `params` supplies %placeholders%.
Result<LoweredQuery> lower_graph_query(
    const graql::GraphQueryStmt& stmt, const graph::GraphView& graph,
    const SubgraphResolver& subgraphs, const relational::ParamMap& params,
    StringPool& pool);

}  // namespace gems::exec
