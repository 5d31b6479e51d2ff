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
// Intra-node parallelism (DESIGN.md §5e): every frontier expansion —
// edge-constraint support, group-hop closure, matched-edge and
// group-interior marking — optionally fans out over a ThreadPool. Workers
// take contiguous word-ranges of the source frontier bitset and write
// private per-type output shards that are OR-merged at the join, so
// results are bit-identical for every thread count (including serial) and
// the inner loops carry no atomics.
//
// The fixpoint is exact (arc consistency == satisfiability) when the
// constraint graph is a tree and there are no cross predicates
// (network.tree_exact). Otherwise the enumerator refines it.
#pragma once

#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "exec/network.hpp"

namespace gems::exec {

struct MatchStats {
  std::size_t propagation_passes = 0;
  std::size_t edge_traversals = 0;  // CSR adjacency visits
  std::size_t parallel_tasks = 0;   // sharded frontier-expansion tasks run
  std::uint64_t merge_ns = 0;       // wall time OR-merging worker shards
  LatencyHistogram worker_us;       // per-task worker wall time

  /// Folds a worker shard's counters into this (aggregate) stats object.
  /// edge_traversals is partitioned across shards, so the sum is identical
  /// to the serial count; timings are additive.
  void absorb(const MatchStats& shard) {
    edge_traversals += shard.edge_traversals;
    parallel_tasks += shard.parallel_tasks;
    merge_ns += shard.merge_ns;
    worker_us.merge(shard.worker_us);
  }
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
/// passes run until quiescent regardless. `intra_pool` (may be null =
/// serial) parallelizes frontier expansion; the result is bit-identical
/// either way.
Result<MatchResult> match_network(const ConstraintNetwork& net,
                                  const graph::GraphView& graph,
                                  const StringPool& pool,
                                  const std::vector<int>* order = nullptr,
                                  ThreadPool* intra_pool = nullptr);

/// Shared helper: evaluates a vertex variable's self conditions for one
/// vertex (cursor at the representative row).
bool vertex_passes(const ConstraintNetwork& net, const graph::GraphView& graph,
                   const StringPool& pool, int var,
                   graph::VertexTypeId type, graph::VertexIndex v);

/// Initial (pre-propagation) domain of a variable: type extents filtered
/// by self conditions and seeds. Condition evaluation parallelizes over
/// `intra_pool` (workers own disjoint word-aligned ranges of the output
/// bitset, so no merge is needed).
Domain initial_domain(const ConstraintNetwork& net,
                      const graph::GraphView& graph, int var,
                      ThreadPool* intra_pool = nullptr);

/// Closure of a regex group: all end vertices reachable from `start` with
/// an admissible number of body iterations (forward), or all start
/// vertices that can reach `start` (backward). Used by the fixpoint and
/// by the enumerator's per-start memoized reachability.
Result<Domain> group_closure_forward(const graph::GraphView& graph,
                                     const StringPool& pool,
                                     const GroupConstraint& g,
                                     const Domain& start, MatchStats* stats,
                                     ThreadPool* intra_pool = nullptr);
Result<Domain> group_closure_backward(const graph::GraphView& graph,
                                      const StringPool& pool,
                                      const GroupConstraint& g,
                                      const Domain& end, MatchStats* stats,
                                      ThreadPool* intra_pool = nullptr);

/// Eq. 5's matched-edge sets E(q), computed from converged domains: for
/// every edge constraint, the edges whose endpoints lie in the final
/// domains and whose self conditions hold. Walks the CSR from the smaller
/// endpoint domain (never a full edge scan) and shards the walk over
/// `intra_pool`. Shared by the single-node and distributed matchers.
std::vector<std::map<graph::EdgeTypeId, DynamicBitset>> matched_edge_sets(
    const ConstraintNetwork& net, const graph::GraphView& graph,
    const StringPool& pool, const std::vector<Domain>& domains,
    MatchStats* stats, ThreadPool* intra_pool = nullptr);

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
  metrics::Counter& parallel_tasks_;
  metrics::Counter& merge_ns_;
  metrics::Histogram& worker_us_;
};

}  // namespace gems::exec
