#include "exec/enumerate.hpp"

#include <map>
#include <span>

#include "common/check.hpp"
#include "relational/eval.hpp"

namespace gems::exec {

namespace {

using graph::AdjacencyPart;
using graph::CsrIndex;
using graph::EdgeRef;
using graph::EdgeType;
using graph::EdgeTypeId;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexRef;
using graph::VertexType;
using graph::VertexTypeId;
using relational::RowCursor;

enum class OpKind : std::uint8_t {
  kStartVar,    // iterate a variable's domain
  kExtendEdge,  // one endpoint assigned: walk adjacency
  kCheckEdge,   // both assigned: find connecting edges
  kExtendGroup,
  kCheckGroup,
};

struct EnumOp {
  OpKind kind;
  int index;              // var index (kStartVar) or constraint index
  bool from_left = true;  // extension direction
};

/// Builds the DFS schedule: start at `root`, repeatedly attach the first
/// unprocessed constraint touching an assigned variable; open new
/// components with kStartVar.
std::vector<EnumOp> build_plan(const ConstraintNetwork& net, int root) {
  std::vector<EnumOp> ops;
  std::vector<bool> var_assigned(net.num_vars(), false);
  std::vector<bool> edge_done(net.edges.size(), false);
  std::vector<bool> group_done(net.groups.size(), false);

  auto start_var = [&](int v) {
    ops.push_back({OpKind::kStartVar, v, true});
    var_assigned[v] = true;
  };
  if (net.num_vars() == 0) return ops;
  start_var(root >= 0 && root < static_cast<int>(net.num_vars()) ? root : 0);

  const std::size_t total = net.edges.size() + net.groups.size();
  std::size_t done = 0;
  while (done < total) {
    bool progressed = false;
    for (std::size_t c = 0; c < net.edges.size(); ++c) {
      if (edge_done[c]) continue;
      const EdgeConstraint& con = net.edges[c];
      const bool l = var_assigned[con.left_var];
      const bool r = var_assigned[con.right_var];
      if (!l && !r) continue;
      if (l && r) {
        ops.push_back({OpKind::kCheckEdge, static_cast<int>(c), true});
      } else {
        ops.push_back({OpKind::kExtendEdge, static_cast<int>(c), l});
        var_assigned[l ? con.right_var : con.left_var] = true;
      }
      edge_done[c] = true;
      ++done;
      progressed = true;
    }
    for (std::size_t g = 0; g < net.groups.size(); ++g) {
      if (group_done[g]) continue;
      const GroupConstraint& con = net.groups[g];
      const bool l = var_assigned[con.left_var];
      const bool r = var_assigned[con.right_var];
      if (!l && !r) continue;
      if (l && r) {
        ops.push_back({OpKind::kCheckGroup, static_cast<int>(g), true});
      } else {
        ops.push_back({OpKind::kExtendGroup, static_cast<int>(g), l});
        var_assigned[l ? con.right_var : con.left_var] = true;
      }
      group_done[g] = true;
      ++done;
      progressed = true;
    }
    if (!progressed) {
      // Disconnected component: anchor its first variable.
      for (std::size_t c = 0; c < net.edges.size(); ++c) {
        if (!edge_done[c]) {
          start_var(net.edges[c].left_var);
          break;
        }
      }
      for (std::size_t g = 0; g < net.groups.size(); ++g) {
        if (!group_done[g] && !var_assigned[net.groups[g].left_var]) {
          bool anchored = false;
          for (std::size_t c = 0; c < net.edges.size(); ++c) {
            if (!edge_done[c]) {
              anchored = true;
              break;
            }
          }
          if (!anchored) start_var(net.groups[g].left_var);
          break;
        }
      }
    }
  }
  // Variables not touched by any constraint.
  for (std::size_t v = 0; v < net.num_vars(); ++v) {
    if (!var_assigned[v]) start_var(static_cast<int>(v));
  }
  return ops;
}

/// Calls `visit(v)` for each set bit v of `bits`, ascending, until it
/// fails or `stop` is set. It walks the words in place rather than listing
/// the indices first: a list per candidate set would be an array the size
/// of the domain on every start and group step.
template <typename Visit>
Status visit_set_bits(const DynamicBitset& bits, const bool& stop,
                      Visit&& visit) {
  const std::span<const std::uint64_t> words = bits.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
      GEMS_RETURN_IF_ERROR(visit(static_cast<VertexIndex>(w * 64 + bit)));
      if (stop) return Status::ok();
    }
  }
  return Status::ok();
}

class Enumerator {
 public:
  Enumerator(const ConstraintNetwork& net, const GraphView& graph,
             const StringPool& pool, const MatchResult& match,
             const EnumOptions& options, const EmitFn& emit)
      : net_(net),
        graph_(graph),
        pool_(pool),
        match_(match),
        options_(options),
        emit_(emit),
        plan_(build_plan(net, options.root_var)),
        vertices_(net.num_vars()),
        edges_(net.edges.size()) {
    cursors_.resize(kEdgeSourceBase + net.edges.size());
  }

  Result<EnumStats> run() {
    if (!net_.set_eqs.empty()) {
      // Set-label references are set-level constraints already folded
      // into the domains; nothing per-assignment to do.
    }
    GEMS_RETURN_IF_ERROR(dfs(0));
    return stats_;
  }

 private:
  Status dfs(std::size_t op_index) {
    if (stop_) return Status::ok();
    if (op_index == plan_.size()) return leaf();
    const EnumOp& op = plan_[op_index];
    switch (op.kind) {
      case OpKind::kStartVar:
        return op_start_var(op, op_index);
      case OpKind::kExtendEdge:
        return op_extend_edge(op, op_index);
      case OpKind::kCheckEdge:
        return op_check_edge(op, op_index);
      case OpKind::kExtendGroup:
        return op_extend_group(op, op_index);
      case OpKind::kCheckGroup:
        return op_check_group(op, op_index);
    }
    GEMS_UNREACHABLE("bad op kind");
  }

  Status leaf() {
    // Eq. 12 type bindings: label occurrences on type-matching steps must
    // agree on their matched type.
    for (const TypeEqConstraint& te : net_.type_eqs) {
      if (vertices_[te.var_a].type != vertices_[te.var_b].type) {
        return Status::ok();
      }
    }
    // Cross predicates: all variables are assigned now.
    for (const CrossPred& pred : net_.cross_preds) {
      if (!relational::eval_predicate(*pred.pred, cursors_, pool_)) {
        return Status::ok();
      }
    }
    ++stats_.emitted;
    if (!emit_(vertices_, edges_)) {
      stop_ = true;
      return Status::ok();
    }
    if (options_.max_rows != 0 && stats_.emitted >= options_.max_rows) {
      stats_.truncated = true;
      stop_ = true;
    }
    return Status::ok();
  }

  void bind_vertex(int var, VertexRef ref) {
    vertices_[var] = ref;
    const VertexType& vt = graph_.vertex_type(ref.type);
    cursors_[var] = {&vt.source(), vt.representative_row(ref.index)};
  }

  void bind_edge(int con, EdgeRef ref) {
    edges_[con] = ref;
    const EdgeType& et = graph_.edge_type(ref.type);
    if (et.attr_table() != nullptr) {
      cursors_[kEdgeSourceBase + con] = {et.attr_table(), ref.index};
    }
  }

  Status op_start_var(const EnumOp& op, std::size_t op_index) {
    const Domain& domain = match_.domains[op.index];
    for (const auto& [type, bits] : domain.sets) {
      GEMS_RETURN_IF_ERROR(visit_set_bits(bits, stop_, [&](VertexIndex v) {
        bind_vertex(op.index, VertexRef{type, v});
        return dfs(op_index + 1);
      }));
      if (stop_) return Status::ok();
    }
    return Status::ok();
  }

  Status op_extend_edge(const EnumOp& op, std::size_t op_index) {
    const EdgeConstraint& con = net_.edges[op.index];
    const int from_var = op.from_left ? con.left_var : con.right_var;
    const int to_var = op.from_left ? con.right_var : con.left_var;
    const VertexRef from = vertices_[from_var];
    const auto& matched = match_.matched_edges[op.index];

    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph_.edge_type(move.type);
      // move.forward: the edge runs left->right. Walking from the left
      // uses the forward CSR (keyed by edge source).
      const bool walk_forward = move.forward == op.from_left;
      const VertexTypeId from_type =
          walk_forward ? et.source_type() : et.target_type();
      const VertexTypeId to_type =
          walk_forward ? et.target_type() : et.source_type();
      if (from.type != from_type) continue;
      auto matched_it = matched.find(move.type);
      if (matched_it == matched.end()) continue;
      const CsrIndex& index = walk_forward ? et.forward() : et.reverse();
      Status status = Status::ok();
      index.for_each_part(from.index, [&](const AdjacencyPart& part) {
        if (!status.is_ok() || stop_) return;
        for (std::size_t i = 0; i < part.size(); ++i) {
          ++stats_.extensions;
          if (!matched_it->second.test(part.edge(i))) continue;
          bind_vertex(to_var, VertexRef{to_type, part.neighbor(i)});
          bind_edge(op.index, EdgeRef{move.type, part.edge(i)});
          if (Status s = dfs(op_index + 1); !s.is_ok()) {
            status = std::move(s);
            return;
          }
          if (stop_) return;
        }
      });
      GEMS_RETURN_IF_ERROR(status);
      if (stop_) return Status::ok();
    }
    return Status::ok();
  }

  Status op_check_edge(const EnumOp& op, std::size_t op_index) {
    const EdgeConstraint& con = net_.edges[op.index];
    const VertexRef left = vertices_[con.left_var];
    const VertexRef right = vertices_[con.right_var];
    const auto& matched = match_.matched_edges[op.index];

    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph_.edge_type(move.type);
      const VertexRef& src = move.forward ? left : right;
      const VertexRef& dst = move.forward ? right : left;
      if (src.type != et.source_type() || dst.type != et.target_type()) {
        continue;
      }
      auto matched_it = matched.find(move.type);
      if (matched_it == matched.end()) continue;
      Status status = Status::ok();
      et.forward().for_each_part(src.index, [&](const AdjacencyPart& part) {
        if (!status.is_ok() || stop_) return;
        for (std::size_t i = 0; i < part.size(); ++i) {
          ++stats_.extensions;
          if (part.neighbor(i) != dst.index) continue;
          if (!matched_it->second.test(part.edge(i))) continue;
          bind_edge(op.index, EdgeRef{move.type, part.edge(i)});
          if (Status s = dfs(op_index + 1); !s.is_ok()) {
            status = std::move(s);
            return;
          }
          if (stop_) return;
        }
      });
      GEMS_RETURN_IF_ERROR(status);
      if (stop_) return Status::ok();
    }
    return Status::ok();
  }

  /// Reach set of a group from a single start vertex, memoized.
  Result<const Domain*> group_reach(int group, VertexRef start,
                                    bool forward) {
    auto key = std::make_tuple(group, start, forward);
    auto it = reach_cache_.find(key);
    if (it != reach_cache_.end()) return &it->second;
    const GroupConstraint& g = net_.groups[group];
    Domain single;
    single.sets.emplace(
        start.type,
        DynamicBitset(graph_.vertex_type(start.type).num_vertices()));
    single.sets.at(start.type).set(start.index);
    // The matcher's closure from a one-vertex domain.
    GEMS_ASSIGN_OR_RETURN(Domain reach,
                          group_closure(graph_, pool_, g, single,
                                        /*backward=*/!forward, nullptr));
    auto [pos, inserted] = reach_cache_.emplace(key, std::move(reach));
    return &pos->second;
  }

  Status op_extend_group(const EnumOp& op, std::size_t op_index) {
    const GroupConstraint& g = net_.groups[op.index];
    const int from_var = op.from_left ? g.left_var : g.right_var;
    const int to_var = op.from_left ? g.right_var : g.left_var;
    GEMS_ASSIGN_OR_RETURN(
        const Domain* reach,
        group_reach(op.index, vertices_[from_var], op.from_left));
    // Iterate reach ∩ target domain.
    for (const auto& [type, bits] : reach->sets) {
      auto dom_it = match_.domains[to_var].sets.find(type);
      if (dom_it == match_.domains[to_var].sets.end()) continue;
      DynamicBitset candidates = bits;
      candidates &= dom_it->second;
      GEMS_RETURN_IF_ERROR(
          visit_set_bits(candidates, stop_, [&](VertexIndex v) {
            bind_vertex(to_var, VertexRef{type, v});
            return dfs(op_index + 1);
          }));
      if (stop_) return Status::ok();
    }
    return Status::ok();
  }

  Status op_check_group(const EnumOp& op, std::size_t op_index) {
    const GroupConstraint& g = net_.groups[op.index];
    GEMS_ASSIGN_OR_RETURN(
        const Domain* reach,
        group_reach(op.index, vertices_[g.left_var], /*forward=*/true));
    const VertexRef right = vertices_[g.right_var];
    auto it = reach->sets.find(right.type);
    if (it == reach->sets.end() || !it->second.test(right.index)) {
      return Status::ok();
    }
    return dfs(op_index + 1);
  }

  const ConstraintNetwork& net_;
  const GraphView& graph_;
  const StringPool& pool_;
  const MatchResult& match_;
  const EnumOptions& options_;
  const EmitFn& emit_;
  std::vector<EnumOp> plan_;

  std::vector<VertexRef> vertices_;
  std::vector<EdgeRef> edges_;
  std::vector<RowCursor> cursors_;
  std::map<std::tuple<int, VertexRef, bool>, Domain> reach_cache_;

  EnumStats stats_;
  bool stop_ = false;
};

}  // namespace

Result<EnumStats> enumerate_assignments(const ConstraintNetwork& net,
                                        const GraphView& graph,
                                        const StringPool& pool,
                                        const MatchResult& match,
                                        const EnumOptions& options,
                                        const EmitFn& emit) {
  Enumerator e(net, graph, pool, match, options, emit);
  return e.run();
}

}  // namespace gems::exec
