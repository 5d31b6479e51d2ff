#include "exec/lowering.hpp"

#include <unordered_set>

#include "common/check.hpp"

namespace gems::exec {

namespace {

using graph::EdgeType;
using graph::EdgeTypeId;
using graph::GraphView;
using graph::VertexType;
using graph::VertexTypeId;
using graql::EdgeStep;
using graql::GraphQueryStmt;
using graql::LabelKind;
using graql::PathElement;
using graql::PathGroup;
using graql::PathPattern;
using graql::VertexStep;
using relational::BoundExpr;
using relational::BoundExprPtr;
using relational::ExprPtr;
using relational::ParamMap;
using relational::Slot;
using storage::DataType;

/// All vertex type ids of the graph (variant step domain).
std::vector<VertexTypeId> all_vertex_types(const GraphView& graph) {
  std::vector<VertexTypeId> out(graph.num_vertex_types());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<VertexTypeId>(i);
  }
  return out;
}

/// Builds one network from one and-group.
class NetworkBuilder {
 public:
  NetworkBuilder(const GraphView& graph, const SubgraphResolver& subgraphs,
                 const ParamMap& params, StringPool& pool,
                 const graql::StepNames& names)
      : graph_(graph),
        subgraphs_(subgraphs),
        params_(params),
        pool_(pool),
        names_(names) {}

  Status add_path(const PathPattern& path) {
    if (path.elements.empty() ||
        !std::holds_alternative<VertexStep>(path.elements.front())) {
      return invalid_argument("a path must start with a vertex step");
    }
    std::vector<int> chain;
    int prev_var = -1;
    const graql::EdgeStep* pending_edge = nullptr;

    for (const PathElement& el : path.elements) {
      if (const auto* v = std::get_if<VertexStep>(&el)) {
        GEMS_ASSIGN_OR_RETURN(int var, add_vertex_step(*v));
        if (pending_edge != nullptr) {
          GEMS_RETURN_IF_ERROR(add_edge_constraint(*pending_edge, prev_var,
                                                   var));
          pending_edge = nullptr;
        }
        prev_var = var;
        chain.push_back(var);
        continue;
      }
      if (const auto* e = std::get_if<EdgeStep>(&el)) {
        GEMS_CHECK(pending_edge == nullptr);
        pending_edge = e;
        continue;
      }
      const auto& group = std::get<PathGroup>(el);
      GEMS_ASSIGN_OR_RETURN(int var, add_group(group, prev_var));
      prev_var = var;
      chain.push_back(var);
    }
    if (pending_edge != nullptr) {
      return invalid_argument("a path must end with a vertex step");
    }
    net_.path_vars.push_back(std::move(chain));
    return Status::ok();
  }

  ConstraintNetwork take_network() {
    finalize_exactness();
    return std::move(net_);
  }
  std::map<const void*, StepRef> take_refs() { return std::move(lowered_); }

 private:
  // ---- Steps ----------------------------------------------------------

  Result<int> add_vertex_step(const VertexStep& step) {
    // A label reference revisits the step its label names.
    if (const auto ref = names_.refs.find(&step); ref != names_.refs.end()) {
      if (ref->second.is_edge) {
        return type_error("label '" + step.type_name +
                          "' names an edge step");
      }
      const int labeled = lowered_.at(ref->second.ast).index;
      int var;
      if (static_cast<const VertexStep*>(ref->second.ast)->label_kind ==
          LabelKind::kForeach) {
        var = labeled;  // alias: the very same variable (Eq. 8)
      } else {
        // Set label: fresh variable of the same types, tied by set
        // equality (Eq. 6/7).
        var = clone_var_shape(labeled);
        net_.set_eqs.push_back({labeled, var});
        // Eq. 12: when the labeled step is type-matching, the label's
        // type binds at matching time — occurrences must agree per
        // assignment.
        if (net_.vars[labeled].variant) {
          net_.type_eqs.push_back({labeled, var});
        }
      }
      lowered_.emplace(&step, StepRef{false, var});
      if (step.condition) {
        GEMS_RETURN_IF_ERROR(attach_vertex_condition(var, step));
      }
      return var;
    }

    VertexVar var;
    if (step.variant) {
      var.variant = true;
      var.types = all_vertex_types(graph_);
      var.display = step.label.empty()
                        ? "_v" + std::to_string(net_.vars.size())
                        : step.label;
    } else {
      GEMS_ASSIGN_OR_RETURN(VertexTypeId type,
                            graph_.find_vertex_type(step.type_name));
      var.types = {type};
      var.display = step.label.empty() ? step.type_name : step.label;
      if (!step.seed_result.empty()) {
        GEMS_ASSIGN_OR_RETURN(var.seed, subgraphs_(step.seed_result));
      }
    }
    const int index = static_cast<int>(net_.vars.size());
    net_.vars.push_back(std::move(var));
    lowered_.emplace(&step, StepRef{false, index});

    if (step.condition) {
      GEMS_RETURN_IF_ERROR(attach_vertex_condition(index, step));
    }
    return index;
  }

  int clone_var_shape(int src) {
    VertexVar var;
    var.types = net_.vars[src].types;
    var.variant = net_.vars[src].variant;
    var.display = "_ref" + std::to_string(net_.vars.size());
    const int index = static_cast<int>(net_.vars.size());
    net_.vars.push_back(std::move(var));
    return index;
  }

  Status add_edge_constraint(const EdgeStep& step, int left, int right) {
    EdgeConstraint con;
    con.left_var = left;
    con.right_var = right;
    con.variant = step.variant;

    GEMS_ASSIGN_OR_RETURN(
        con.moves, resolve_moves(step, net_.vars[left], net_.vars[right]));

    // Push before binding conditions: slot_for() resolves the constraint
    // through net_.edges[edge_index].
    const int edge_index = static_cast<int>(net_.edges.size());
    net_.edges.push_back(std::move(con));
    lowered_.emplace(&step, StepRef{true, edge_index});
    if (step.condition) {
      GEMS_RETURN_IF_ERROR(
          attach_edge_condition(edge_index, net_.edges[edge_index], step));
    }
    return Status::ok();
  }

  /// Resolves the admissible (edge type, direction) moves for a step
  /// between two variables — Eq. 10's union over matching edge types.
  Result<std::vector<EdgeMove>> resolve_moves(const EdgeStep& step,
                                              const VertexVar& left,
                                              const VertexVar& right) {
    std::vector<EdgeMove> moves;
    if (!step.variant) {
      GEMS_ASSIGN_OR_RETURN(EdgeTypeId id,
                            graph_.find_edge_type(step.type_name));
      const EdgeType& et = graph_.edge_type(id);
      // Forward lexical step: left --e--> right needs src=left, dst=right.
      // Reversed: left <--e-- right needs src=right, dst=left.
      const auto& src_types = step.reversed ? right.types : left.types;
      const auto& dst_types = step.reversed ? left.types : right.types;
      const bool src_ok =
          std::find(src_types.begin(), src_types.end(), et.source_type()) !=
          src_types.end();
      const bool dst_ok =
          std::find(dst_types.begin(), dst_types.end(), et.target_type()) !=
          dst_types.end();
      if (!src_ok || !dst_ok) {
        return type_error("edge '" + step.type_name +
                          "' does not connect these step types in this "
                          "direction");
      }
      moves.push_back({id, /*forward=*/!step.reversed});
      return moves;
    }
    // Variant edge: any edge type whose endpoints fit the adjacent
    // variables given the lexical direction.
    for (EdgeTypeId id = 0; id < graph_.num_edge_types(); ++id) {
      const EdgeType& et = graph_.edge_type(id);
      const auto& src_types = step.reversed ? right.types : left.types;
      const auto& dst_types = step.reversed ? left.types : right.types;
      const bool src_ok =
          std::find(src_types.begin(), src_types.end(), et.source_type()) !=
          src_types.end();
      const bool dst_ok =
          std::find(dst_types.begin(), dst_types.end(), et.target_type()) !=
          dst_types.end();
      if (src_ok && dst_ok) moves.push_back({id, !step.reversed});
    }
    if (moves.empty()) {
      return invalid_argument(
          "no edge type connects the adjacent steps (statically empty "
          "variant step)");
    }
    return moves;
  }

  Result<int> add_group(const PathGroup& group, int prev_var) {
    GEMS_CHECK(prev_var >= 0);
    GroupConstraint con;
    con.left_var = prev_var;
    con.quant = group.quant;
    con.count = group.count;

    // Body: alternating edge/vertex steps (parser guarantees shape).
    // The final body vertex becomes an implicit variable (the group's
    // right endpoint): the closure lands on vertices satisfying it.
    const VertexStep* last_vertex = nullptr;
    for (std::size_t i = 0; i < group.body.size(); i += 2) {
      const auto& e = std::get<EdgeStep>(group.body[i]);
      const auto& v = std::get<VertexStep>(group.body[i + 1]);
      if (e.label_kind != LabelKind::kNone ||
          v.label_kind != LabelKind::kNone) {
        return invalid_argument(
            "labels are not allowed inside path regular expressions");
      }
      GroupHop hop;
      hop.reversed = e.reversed;
      hop.edge_variant = e.variant;
      if (!e.variant) {
        GEMS_ASSIGN_OR_RETURN(EdgeTypeId id,
                              graph_.find_edge_type(e.type_name));
        hop.edge_types = {id};
      }
      if (e.condition) {
        if (e.variant) {
          return invalid_argument("conditions on variant steps");
        }
        const graph::EdgeType& et =
            graph_.edge_type(hop.edge_types.front());
        if (et.attr_table() == nullptr) {
          return type_error("edge type '" + e.type_name +
                            "' has no attributes to filter on");
        }
        relational::TableScope scope(*et.attr_table(), e.type_name);
        GEMS_ASSIGN_OR_RETURN(
            BoundExprPtr bound,
            relational::bind_predicate(e.condition, scope, params_, pool_));
        hop.edge_conds.push_back(std::move(bound));
      }
      hop.vertex_variant = v.variant;
      if (!v.variant) {
        GEMS_ASSIGN_OR_RETURN(VertexTypeId id,
                              graph_.find_vertex_type(v.type_name));
        hop.vertex_types = {id};
      } else {
        hop.vertex_types = all_vertex_types(graph_);
      }
      if (v.condition) {
        if (v.variant) {
          return invalid_argument("conditions on variant steps");
        }
        // Bound with slot source pointing at the group's right var; but
        // hop conditions apply to intermediate vertices too — they are
        // evaluated against the hop vertex's own cursor, so bind with a
        // dedicated single-source scope (source id = 0) and evaluate with
        // a one-element cursor span at match time.
        const VertexType& vt =
            graph_.vertex_type(hop.vertex_types.front());
        relational::TableScope scope(vt.source(), v.type_name);
        GEMS_ASSIGN_OR_RETURN(
            BoundExprPtr bound,
            relational::bind_predicate(v.condition, scope, params_, pool_));
        hop.vertex_conds.push_back(std::move(bound));
      }
      con.hops.push_back(std::move(hop));
      last_vertex = &v;
    }
    GEMS_CHECK(last_vertex != nullptr);

    // Right endpoint variable: shaped like the last body vertex.
    VertexVar var;
    var.variant = last_vertex->variant;
    var.types = con.hops.back().vertex_types;
    var.display = "_g" + std::to_string(net_.groups.size());
    const int index = static_cast<int>(net_.vars.size());
    net_.vars.push_back(std::move(var));
    con.right_var = index;
    net_.groups.push_back(std::move(con));
    // Groups are opaque: no step names, no labels inside.
    return index;
  }

  // ---- Conditions -------------------------------------------------------

  /// Slot for (step, column): source id = var index for vertices,
  /// num_vars_budget + edge index for edges. Because var count grows
  /// during lowering, edge sources use a fixed offset (kEdgeSourceBase).
  Result<Slot> slot_for(StepRef ref, std::string_view col) {
    if (!ref.is_edge) {
      const VertexVar& var = net_.vars[ref.index];
      if (var.variant) {
        return type_error("variant steps have no referencable attributes");
      }
      const VertexType& vt = graph_.vertex_type(var.types.front());
      GEMS_ASSIGN_OR_RETURN(storage::ColumnIndex idx,
                            vt.resolve_attribute(col));
      return Slot{static_cast<std::uint16_t>(ref.index), idx,
                  vt.source().schema().column(idx).type};
    }
    const EdgeConstraint& con = net_.edges[ref.index];
    if (con.variant) {
      return type_error("variant steps have no referencable attributes");
    }
    const EdgeType& et = graph_.edge_type(con.moves.front().type);
    GEMS_ASSIGN_OR_RETURN(storage::ColumnIndex idx,
                          et.resolve_attribute(col));
    return Slot{static_cast<std::uint16_t>(kEdgeSourceBase + ref.index), idx,
                et.attr_table()->schema().column(idx).type};
  }

  Status attach_vertex_condition(int var, const VertexStep& step) {
    return attach_condition(step, var, [&](BoundExprPtr bound) {
      VertexVar& vv = net_.vars[var];
      vv.self_conds.push_back(std::move(bound));
      // Kernel form for the matcher's batched domain scan. Compilation
      // fails only on another source's column, which a self-only
      // conjunct cannot reference.
      vv.self_cond_kernels.push_back(relational::VectorExpr::compile(
          *vv.self_conds.back(), static_cast<std::uint16_t>(var), pool_));
      GEMS_CHECK(vv.self_cond_kernels.back() != nullptr);
    });
  }

  Status attach_edge_condition(int edge_index, EdgeConstraint& con,
                               const EdgeStep& step) {
    return attach_condition(step, kEdgeSourceBase + edge_index,
                            [&](BoundExprPtr bound) {
                              con.self_conds.push_back(std::move(bound));
                            });
  }

  /// Binds `step`'s condition conjunct by conjunct through its StepScope. A
  /// conjunct over the step alone (slot source `self`) goes to `add_self`,
  /// to filter during propagation; any other is a cross predicate.
  template <typename Step, typename AddSelf>
  Status attach_condition(const Step& step, int self, const AddSelf& add_self) {
    const graql::StepScope scope(
        names_, step,
        [this](const graql::NamedStep& named, std::string_view column) {
          return slot_for(lowered_.at(named.ast), column);
        });
    for (const ExprPtr& conjunct :
         relational::split_conjuncts(step.condition)) {
      GEMS_ASSIGN_OR_RETURN(
          BoundExprPtr bound,
          relational::bind_predicate(conjunct, scope, params_, pool_));
      std::vector<int> sources;
      collect_slot_sources(*bound, sources);
      if (sources.empty() || (sources.size() == 1 && sources[0] == self)) {
        add_self(std::move(bound));
      } else {
        net_.cross_preds.push_back({std::move(bound), std::move(sources)});
      }
    }
    return Status::ok();
  }

  static void collect_slot_sources(const BoundExpr& e,
                                   std::vector<int>& out) {
    switch (e.kind) {
      case BoundExpr::Kind::kColumnRef: {
        const int s = e.slot.source;
        if (std::find(out.begin(), out.end(), s) == out.end()) {
          out.push_back(s);
        }
        return;
      }
      case BoundExpr::Kind::kConst:
        return;
      case BoundExpr::Kind::kUnary:
        collect_slot_sources(*e.lhs, out);
        return;
      case BoundExpr::Kind::kBinary:
        collect_slot_sources(*e.lhs, out);
        collect_slot_sources(*e.rhs, out);
        return;
    }
  }

  // ---- Exactness ---------------------------------------------------------

  void finalize_exactness() {
    if (!net_.cross_preds.empty() || !net_.type_eqs.empty()) {
      net_.tree_exact = false;
      return;
    }
    // Cycle check over vars with edge/group/set-eq constraints as edges.
    std::vector<int> parent(net_.vars.size());
    for (std::size_t i = 0; i < parent.size(); ++i) {
      parent[i] = static_cast<int>(i);
    }
    std::function<int(int)> find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    auto unite = [&](int a, int b) {
      a = find(a);
      b = find(b);
      if (a == b) {
        net_.tree_exact = false;  // cycle
        return;
      }
      parent[a] = b;
    };
    for (const auto& e : net_.edges) unite(e.left_var, e.right_var);
    for (const auto& g : net_.groups) unite(g.left_var, g.right_var);
    for (const auto& s : net_.set_eqs) unite(s.var_a, s.var_b);
  }

 private:
  const GraphView& graph_;
  const SubgraphResolver& subgraphs_;
  const ParamMap& params_;
  StringPool& pool_;

  const graql::StepNames& names_;

  ConstraintNetwork net_;
  // Each lowered VertexStep or EdgeStep -> its variable or constraint.
  std::map<const void*, StepRef> lowered_;
};

}  // namespace

Result<LoweredQuery> lower_graph_query(const GraphQueryStmt& stmt,
                                       const GraphView& graph,
                                       const SubgraphResolver& subgraphs,
                                       const ParamMap& params,
                                       StringPool& pool) {
  LoweredQuery out;
  for (const auto& and_group : stmt.or_groups) {
    const graql::StepNames names(and_group);
    NetworkBuilder builder(graph, subgraphs, params, pool, names);
    for (const PathPattern& path : and_group) {
      GEMS_RETURN_IF_ERROR(builder.add_path(path));
    }
    out.networks.push_back(builder.take_network());
    out.step_refs.push_back(builder.take_refs());
  }
  return out;
}

}  // namespace gems::exec
