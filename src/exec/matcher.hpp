// Fixpoint path matcher (Eq. 5). Computes, for every variable of a
// constraint network, the set of vertices that participate in at least one
// fully satisfying assignment — "the set of vertices selected at a
// particular step will be culled by subsequent steps of all vertices that
// have no path to vertices selected at that step".
//
// Mechanics: per-variable candidate domains are initialized from the
// steps' self conditions (and Fig. 12 seeds), then every edge, group and
// set-label constraint is propagated in both directions until nothing
// changes. Propagating an edge constraint right-to-left is exactly the
// reverse-edge-index traversal of paper Sec. III-B; bench_planner_ablation
// quantifies it.
//
// Two hop kernels do every frontier expansion: `edge_support` for edge
// constraints and `expand_hop` for one hop of a regex group, either
// direction. The single-node fixpoint below and the distributed rank body
// (dist/dist_matcher.hpp) both call them; a rank passes an OwnedSplit and
// gets its remote targets back as a list to route.
//
// One request, one thread (DESIGN.md §5e): a match runs every frontier
// expansion on its caller's thread. Parallelism lives across requests
// and inside the graph rebuild.
//
// The fixpoint is exact (arc consistency == satisfiability) when the
// constraint graph is a tree and there are no cross predicates
// (network.tree_exact). Otherwise the enumerator refines it.
#pragma once

#include <span>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "exec/network.hpp"
#include "relational/eval.hpp"

namespace gems {
class ThreadPool;
}

namespace gems::exec {

/// Largest `{n}` a regex group may repeat its body.
inline constexpr std::uint32_t kMaxExactRepeats = 1024;

struct MatchStats {
  std::size_t propagation_passes = 0;
  std::size_t edge_traversals = 0;  // CSR adjacency visits
};

struct MatchResult {
  std::vector<Domain> domains;  // per variable, post-fixpoint

  /// Per edge constraint: matched edges per edge type (endpoints in the
  /// final domains, self conditions satisfied).
  std::vector<std::map<graph::EdgeTypeId, DynamicBitset>> matched_edges;

  /// Per group constraint: on-path interior vertices and edges (for
  /// subgraph output of regex queries).
  std::vector<Subgraph> group_elements;

  MatchStats stats;

  bool empty() const {
    for (const auto& d : domains) {
      if (d.empty()) return true;
    }
    return domains.empty();
  }
};

/// Runs the fixpoint. `order` optionally gives the constraint visit order
/// for the first pass (the planner's choice, Sec. III-B); subsequent
/// passes run until quiescent regardless.
Result<MatchResult> match_network(const ConstraintNetwork& net,
                                  const graph::GraphView& graph,
                                  const StringPool& pool,
                                  const std::vector<int>* order = nullptr);

/// Kept only for the per-layer replay in bench/e2e/trace.cpp, which
/// passes a pool; the pool is ignored. Deleted together with that replay.
inline Result<MatchResult> match_network(const ConstraintNetwork& net,
                                         const graph::GraphView& graph,
                                         const StringPool& pool,
                                         const std::vector<int>* order,
                                         ThreadPool* /*unused*/) {
  return match_network(net, graph, pool, order);
}

/// Shared helper: evaluates a vertex variable's self conditions for one
/// vertex (cursor at the representative row).
bool vertex_passes(const ConstraintNetwork& net, const graph::GraphView& graph,
                   const StringPool& pool, int var,
                   graph::VertexTypeId type, graph::VertexIndex v);

/// Initial (pre-propagation) domain of a variable: type extents filtered
/// by self conditions and seeds.
Domain initial_domain(const ConstraintNetwork& net,
                      const graph::GraphView& graph, int var);

/// Closure of a regex group: all end vertices reachable from `start` with
/// an admissible number of body iterations, or (`backward`) all start
/// vertices that can reach `start`. Used by the fixpoint and by the
/// enumerator's per-start memoized reachability.
Result<Domain> group_closure(const graph::GraphView& graph,
                             const StringPool& pool, const GroupConstraint& g,
                             const Domain& start, bool backward,
                             MatchStats* stats);

// ---- Hop kernels ------------------------------------------------------------

/// Predicate scratch of one match: a cursor slot per variable plus the
/// edge band starting at kEdgeSourceBase (64 KiB). The cursors are
/// mutable, so a match or rank job builds its own, once.
class Evaluator {
 public:
  Evaluator(const ConstraintNetwork& net, const graph::GraphView& graph,
            const StringPool& pool);

  void set_edge(std::size_t edge_con, graph::EdgeTypeId type,
                graph::EdgeIndex e);
  bool eval_all(const std::vector<relational::BoundExprPtr>& preds) const;

 private:
  const graph::GraphView& graph_;
  const StringPool& pool_;
  std::vector<relational::RowCursor> cursors_;
};

/// A rank's share of an expansion (DESIGN.md §5h). The kernel sets only
/// targets whose bit is set in `owned` (indexed by vertex type) and
/// appends every other target that passes to `remote`, in walk order and
/// with duplicates.
struct OwnedSplit {
  std::span<const DynamicBitset> owned;
  std::vector<graph::VertexRef>& remote;
};

/// Support of one side of edge constraint `c`: the vertices of the other
/// side's types in `domains` joined by an edge of the constraint, whose
/// self conditions hold, to the `from_left` side's domain.
Domain edge_support(const ConstraintNetwork& net,
                    const graph::GraphView& graph, std::size_t c,
                    bool from_left, const std::vector<Domain>& domains,
                    Evaluator& ev, MatchStats* stats,
                    const OwnedSplit* split = nullptr);

/// One hop of a regex group walked from `from`: forward, it lands on the
/// hop's own vertex step; `backward`, it walks the hop right-to-left and
/// lands on the vertex step of `target_hop`, the preceding hop (null at
/// the group's start: any vertex type, unfiltered).
Domain expand_hop(const graph::GraphView& graph, const StringPool& pool,
                  const GroupHop& hop, const Domain& from, bool backward,
                  const GroupHop* target_hop, MatchStats* stats,
                  const OwnedSplit* split = nullptr);

/// Eq. 5's matched-edge sets E(q), computed from converged domains: for
/// every edge constraint, the edges whose endpoints lie in the final
/// domains and whose self conditions hold. Walks the CSR from the smaller
/// endpoint domain (never a full edge scan). The distributed matchers run
/// it on the gathered domains.
std::vector<std::map<graph::EdgeTypeId, DynamicBitset>> matched_edge_sets(
    const ConstraintNetwork& net, const graph::GraphView& graph,
    const StringPool& pool, const std::vector<Domain>& domains,
    MatchStats* stats);

// ---- Matcher observability ------------------------------------------------

/// Matcher activity since the database opened (`exec.match.*`): handles
/// into the database's metrics registry, recorded from every statement
/// thread (the handles synchronize themselves).
class MatcherMetrics {
 public:
  explicit MatcherMetrics(metrics::Registry& registry);
  void record(const MatchStats& stats);

 private:
  metrics::Counter& queries_;  // match_network runs recorded
  metrics::Counter& passes_;
  metrics::Counter& edge_traversals_;
};

}  // namespace gems::exec
