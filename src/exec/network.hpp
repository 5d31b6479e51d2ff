// Lowered representation of one and-group of a graph query: a constraint
// network over vertex variables.
//
//  * Every vertex step is a variable (element-wise `foreach` references
//    alias an existing variable — Eq. 8's same-instance semantics).
//  * Every edge step is a binary constraint between adjacent variables,
//    resolved to the set of edge types it may traverse (Eq. 10 variant
//    expansion happens here).
//  * Every regex group is a closure constraint with an unrolled hop body
//    (Fig. 10).
//  * `def` set labels add set-equality constraints (Eq. 6/7).
//  * Conditions that reference other (labeled) steps become cross
//    predicates, checked during enumeration.
//
// The matcher computes per-variable candidate domains by fixpoint
// propagation (Eq. 5's culling: "the set of vertices selected at a
// particular step will be culled ... of all vertices that have no path to
// vertices selected at that step"); the enumerator walks satisfying
// assignments for table output and for exactness in the presence of
// cycles or cross predicates.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exec/subgraph.hpp"
#include "graph/graph_view.hpp"
#include "graql/ast.hpp"
#include "relational/batch.hpp"
#include "relational/bound_expr.hpp"
#include "relational/vector_eval.hpp"

namespace gems::exec {

/// Slot::source ids at or above this base refer to edge constraints
/// (cursor band layout: [0, num_vars) vertex vars, [kEdgeSourceBase,
/// kEdgeSourceBase + num_edge_constraints) edge cursors).
inline constexpr int kEdgeSourceBase = 4096;

/// Candidate set of one variable: per-type membership bitsets.
struct Domain {
  // type -> candidate vertices (bitsets sized to the type's vertex count)
  std::map<graph::VertexTypeId, DynamicBitset> sets;

  std::size_t count() const;
  bool empty() const;
  bool intersect(const Domain& other);  // returns true if changed
  void unite(const Domain& other);      // adds other's types and vertices
  void subtract(const Domain& other);   // removes other's vertices

  /// Bit-exact equality (the closure cache's reuse test).
  bool operator==(const Domain& other) const = default;
};

struct VertexVar {
  std::vector<graph::VertexTypeId> types;  // allowed types (all, if variant)
  bool variant = false;
  // Self-only predicates; Slot::source == this var's index.
  std::vector<relational::BoundExprPtr> self_conds;
  // Kernel form of self_conds, index-aligned, compiled once at lowering
  // against this variable's source id. The matcher's initial-domain scan
  // evaluates these over batches of representative rows.
  std::vector<relational::VectorExprPtr> self_cond_kernels;
  SubgraphPtr seed;        // Fig. 12: restrict to a previous result
  std::string display;     // label, else type name, else internal (explain)
};

/// One admissible edge type for a constraint, with direction resolved:
/// traversing left->right uses `forward` ? the forward CSR : the reverse.
struct EdgeMove {
  graph::EdgeTypeId type;
  bool forward;  // left var is the edge's source
};

struct EdgeConstraint {
  int left_var = -1;
  int right_var = -1;
  bool variant = false;
  std::vector<EdgeMove> moves;
  // Self-only predicates over the edge's attribute table; Slot::source is
  // the edge constraint's own cursor (see enumerate.cpp).
  std::vector<relational::BoundExprPtr> self_conds;
};

/// One hop of a regex group body: traverse an edge, land on a vertex.
struct GroupHop {
  bool reversed = false;
  bool edge_variant = false;
  std::vector<graph::EdgeTypeId> edge_types;  // empty means "resolve lazily"
  bool vertex_variant = false;
  std::vector<graph::VertexTypeId> vertex_types;
  std::vector<relational::BoundExprPtr> vertex_conds;  // self-only
  // Edge-attribute predicates (bound single-source against the concrete
  // edge type's attribute table).
  std::vector<relational::BoundExprPtr> edge_conds;
};

struct GroupConstraint {
  int left_var = -1;
  int right_var = -1;
  graql::PathGroup::Quant quant = graql::PathGroup::Quant::kPlus;
  std::uint32_t count = 0;
  std::vector<GroupHop> hops;
};

/// Predicate referencing several variables; Slot::source indexes vars.
struct CrossPred {
  relational::BoundExprPtr pred;
  std::vector<int> vars;
};

/// Set-equality constraint from a `def` label and its references
/// (Eq. 6/7): at fixpoint both variables hold the same culled set.
struct SetEqConstraint {
  int var_a = -1;
  int var_b = -1;
};

/// Type-equality constraint (Eq. 12): a label on a type-matching `[ ]`
/// step binds its type at matching time — "a label X that corresponds to
/// a vertex of type V1 will only match a vertex of the same type
/// downstream". Checked per assignment by the enumerator.
struct TypeEqConstraint {
  int var_a = -1;
  int var_b = -1;
};

/// A planner's decision for one network (filled by src/plan; kept here so
/// exec does not depend on the planner).
struct NetworkPlan {
  int root_var = -1;                  // enumeration pivot (-1: lexical)
  std::vector<int> constraint_order;  // propagation order (empty: natural)
};

struct ConstraintNetwork {
  std::vector<VertexVar> vars;
  std::vector<EdgeConstraint> edges;
  std::vector<GroupConstraint> groups;
  std::vector<SetEqConstraint> set_eqs;
  std::vector<TypeEqConstraint> type_eqs;
  std::vector<CrossPred> cross_preds;

  // Per-path chains: variable indices in lexical order, used by the
  // enumerator for default variable ordering.
  std::vector<std::vector<int>> path_vars;

  /// True when fixpoint domains alone are exact for subgraph results:
  /// no cross predicates and no constraint cycles through foreach
  /// aliases. Conservatively computed at lowering.
  bool tree_exact = true;

  std::size_t num_vars() const { return vars.size(); }
};

}  // namespace gems::exec
