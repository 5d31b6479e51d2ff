#include "exec/matcher.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "relational/vector_eval.hpp"

namespace gems::exec {

namespace {

using graph::AdjacencyPart;
using graph::CsrIndex;
using graph::EdgeType;
using graph::EdgeTypeId;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexRef;
using graph::VertexType;
using graph::VertexTypeId;
using relational::BoundExprPtr;
using relational::RowCursor;

bool all_hold(const std::vector<BoundExprPtr>& conds,
              std::span<const RowCursor> cursors, const StringPool& pool) {
  for (const auto& cond : conds) {
    if (!relational::eval_predicate(*cond, cursors, pool)) return false;
  }
  return true;
}

}  // namespace

std::size_t Domain::count() const {
  std::size_t n = 0;
  for (const auto& [type, bits] : sets) n += bits.count();
  return n;
}

bool Domain::empty() const {
  for (const auto& [type, bits] : sets) {
    if (bits.any()) return false;
  }
  return true;
}

bool Domain::intersect(const Domain& other) {
  bool changed = false;
  for (auto& [type, bits] : sets) {
    auto it = other.sets.find(type);
    if (it == other.sets.end()) {
      if (bits.any()) {
        bits.reset_all();
        changed = true;
      }
      continue;
    }
    changed |= bits.intersect_changed(it->second);
  }
  return changed;
}

void Domain::unite(const Domain& other) {
  for (const auto& [type, bits] : other.sets) {
    auto it = sets.find(type);
    if (it == sets.end()) {
      sets.emplace(type, bits);
    } else {
      it->second |= bits;
    }
  }
}

void Domain::subtract(const Domain& other) {
  for (auto& [type, bits] : sets) {
    auto it = other.sets.find(type);
    if (it != other.sets.end()) bits.subtract(it->second);
  }
}

Evaluator::Evaluator(const ConstraintNetwork& net, const GraphView& graph,
                     const StringPool& pool)
    : graph_(graph), pool_(pool) {
  cursors_.resize(kEdgeSourceBase + net.edges.size());
}

void Evaluator::set_edge(std::size_t edge_con, EdgeTypeId type,
                         graph::EdgeIndex e) {
  const EdgeType& et = graph_.edge_type(type);
  GEMS_DCHECK(et.attr_table() != nullptr);
  cursors_[kEdgeSourceBase + edge_con] = {et.attr_table(), e};
}

bool Evaluator::eval_all(const std::vector<BoundExprPtr>& preds) const {
  return all_hold(preds, cursors_, pool_);
}

namespace {

// ---- Frontier expansion ---------------------------------------------------
//
// Every propagation step is a union of CSR walks: for each admissible edge
// type, visit the neighbors of every frontier vertex, filter by edge and
// target predicates, and set the survivors in a per-type output bitset.
// A request's walks run on its own thread; the parallelism lives across
// requests and statements (DESIGN.md §5e). Under an OwnedSplit only owned
// targets reach the output bitsets, so the dedup test and the failed-vertex
// memo never drop a remote target that passes; remote targets are listed
// in walk order.

/// One CSR walk of an expansion: frontier bits -> out_type candidates.
struct Traversal {
  const EdgeType* et = nullptr;
  VertexTypeId out_type = 0;
  const CsrIndex* index = nullptr;
  const DynamicBitset* from_bits = nullptr;
  const DynamicBitset* owned = nullptr;  // out_type's owned mask, if split
};

/// Walks `t` over its whole frontier. `failed_bits` (may be null)
/// memoizes vertices whose vertex filter already failed, so a
/// high-in-degree target is evaluated at most once per expansion.
/// `keep(t, u)` says whether a passing target goes to `out_bits`.
template <typename EdgeFilter, typename VertexFilter, typename Keep>
void walk(const Traversal& t, DynamicBitset& out_bits,
          DynamicBitset* failed_bits, MatchStats* stats,
          const EdgeFilter& edge_ok, const VertexFilter& vertex_ok,
          const Keep& keep) {
  // The part body is forced inline at each of for_each_part's call
  // sites, one per kind of part; left to itself GCC outlines the
  // owned-split instance (EXPERIMENTS.md E-SHAREDNEIGHBORS).
  t.index->for_each_part_of(
      *t.from_bits,
      [&](const AdjacencyPart& part) __attribute__((always_inline)) {
        for (std::size_t i = 0; i < part.size(); ++i) {
          const VertexIndex u = part.neighbor(i);
          if (stats != nullptr) ++stats->edge_traversals;
          if (out_bits.test(u)) continue;
          if (failed_bits != nullptr && failed_bits->test(u)) continue;
          if (!edge_ok(*t.et, part.edge(i))) continue;
          if (!vertex_ok(t.out_type, u)) {
            if (failed_bits != nullptr) failed_bits->set(u);
          } else if (keep(t, u)) {
            out_bits.set(u);
          }
        }
      });
}

/// Runs all traversals into `out` (whose per-type bitsets must already
/// exist). `remote` (null unless the traversals carry owned masks)
/// collects the non-owned targets in walk order.
template <typename EdgeFilter, typename VertexFilter>
void expand_traversals(const std::vector<Traversal>& traversals, Domain& out,
                       bool memo_failed, MatchStats* stats,
                       std::vector<VertexRef>* remote,
                       const EdgeFilter& edge_ok,
                       const VertexFilter& vertex_ok) {
  Domain failed;  // per-out-type "evaluated and rejected" memo
  for (const Traversal& t : traversals) {
    DynamicBitset& out_bits = out.sets.at(t.out_type);
    DynamicBitset* failed_bits = nullptr;
    if (memo_failed) {
      auto [it, inserted] =
          failed.sets.try_emplace(t.out_type, DynamicBitset(out_bits.size()));
      failed_bits = &it->second;
    }
    // Without a split every passing target is kept; with one, a non-owned
    // target goes to `remote` instead. Two walk instances, so the split
    // costs the single-node walk nothing.
    if (remote == nullptr) {
      walk(t, out_bits, failed_bits, stats, edge_ok, vertex_ok,
           [](const Traversal&, VertexIndex) { return true; });
      continue;
    }
    walk(t, out_bits, failed_bits, stats, edge_ok, vertex_ok,
         [&](const Traversal& tr, VertexIndex u) {
           if (tr.owned->test(u)) return true;
           remote->push_back({tr.out_type, u});
           return false;
         });
  }
}

/// Sets in `out` the edges of `index` from a `walk_bits` vertex to an
/// `other_bits` vertex that pass `edge_ok`: one CSR walk from the smaller
/// endpoint set, never a full edge scan.
template <typename EdgeFilter>
void mark_edges(const CsrIndex& index, const DynamicBitset& walk_bits,
                const DynamicBitset& other_bits, DynamicBitset& out,
                MatchStats* stats, const EdgeFilter& edge_ok) {
  index.for_each_part_of(
      walk_bits,
      [&](const AdjacencyPart& part) __attribute__((always_inline)) {
        for (std::size_t i = 0; i < part.size(); ++i) {
          if (stats != nullptr) ++stats->edge_traversals;
          if (!other_bits.test(part.neighbor(i))) continue;
          const graph::EdgeIndex e = part.edge(i);
          if (edge_ok(e)) out.set(e);
        }
      });
}

/// Calls `fn` on each edge type a hop may traverse: its own, or every type
/// for a variant edge step.
template <typename Fn>
void for_each_hop_edge_type(const GraphView& graph, const GroupHop& hop,
                            const Fn& fn) {
  if (!hop.edge_types.empty()) {
    for (const EdgeTypeId id : hop.edge_types) fn(graph.edge_type(id));
    return;
  }
  for (EdgeTypeId id = 0; id < graph.num_edge_types(); ++id) {
    fn(graph.edge_type(id));
  }
}

// Hop conditions are bound single-source: they evaluate against a
// one-cursor span on the stack, so they need no Evaluator.

/// A hop's edge conditions on edge `e` of `et`.
bool hop_edge_passes(const StringPool& pool, const GroupHop& hop,
                     const EdgeType& et, graph::EdgeIndex e) {
  if (hop.edge_conds.empty()) return true;
  GEMS_DCHECK(et.attr_table() != nullptr);
  const RowCursor cursor{et.attr_table(), e};
  return all_hold(hop.edge_conds, std::span(&cursor, 1), pool);
}

/// The vertex conditions of the hop whose vertex step `v` lands on.
bool hop_vertex_passes(const StringPool& pool, const GraphView& graph,
                       const GroupHop& landing, VertexTypeId t,
                       VertexIndex v) {
  const VertexType& vt = graph.vertex_type(t);
  const RowCursor cursor{&vt.source(), vt.representative_row(v)};
  return all_hold(landing.vertex_conds, std::span(&cursor, 1), pool);
}

}  // namespace

Domain expand_hop(const GraphView& graph, const StringPool& pool,
                  const GroupHop& hop, const Domain& from, bool backward,
                  const GroupHop* target_hop, MatchStats* stats,
                  const OwnedSplit* split) {
  // The vertex step the walk lands on supplies the output types and the
  // vertex filter; before the group's first hop, that is any vertex.
  const GroupHop* landing = backward ? target_hop : &hop;
  Domain out;
  for (VertexTypeId t = 0; t < graph.num_vertex_types(); ++t) {
    if (landing == nullptr ||
        std::find(landing->vertex_types.begin(), landing->vertex_types.end(),
                  t) != landing->vertex_types.end()) {
      out.sets.emplace(t, DynamicBitset(graph.vertex_type(t).num_vertices()));
    }
  }

  // Walking a forward hop forward, or a reversed hop backward, goes from
  // edge source to edge target over the forward index.
  const bool walk_forward = backward == hop.reversed;
  std::vector<Traversal> traversals;
  for_each_hop_edge_type(graph, hop, [&](const EdgeType& et) {
    const VertexTypeId cur_type =
        walk_forward ? et.source_type() : et.target_type();
    const VertexTypeId next_type =
        walk_forward ? et.target_type() : et.source_type();
    if (!out.sets.contains(next_type)) return;
    auto it = from.sets.find(cur_type);
    if (it == from.sets.end() || !it->second.any()) return;
    traversals.push_back(
        {&et, next_type, walk_forward ? &et.forward() : &et.reverse(),
         &it->second, split != nullptr ? &split->owned[next_type] : nullptr});
  });

  const bool filter_vertices =
      landing != nullptr && !landing->vertex_conds.empty();
  expand_traversals(
      traversals, out, /*memo_failed=*/filter_vertices, stats,
      split != nullptr ? &split->remote : nullptr,
      [&](const EdgeType& et, graph::EdgeIndex e) {
        return hop_edge_passes(pool, hop, et, e);
      },
      [&](VertexTypeId t, VertexIndex v) {
        return !filter_vertices ||
               hop_vertex_passes(pool, graph, *landing, t, v);
      });
  return out;
}

Domain edge_support(const ConstraintNetwork& net, const GraphView& graph,
                    std::size_t c, bool from_left,
                    const std::vector<Domain>& domains,
                    Evaluator& ev, MatchStats* stats,
                    const OwnedSplit* split) {
  const EdgeConstraint& con = net.edges[c];
  const Domain& from = domains[from_left ? con.left_var : con.right_var];
  Domain support;
  for (const auto& [type, bits] :
       domains[from_left ? con.right_var : con.left_var].sets) {
    support.sets.emplace(type, DynamicBitset(bits.size()));
  }
  std::vector<Traversal> traversals;
  for (const EdgeMove& move : con.moves) {
    const EdgeType& et = graph.edge_type(move.type);
    // move.forward: edge runs left->right. Walking from_left therefore
    // uses the forward CSR; walking from the right uses the reverse.
    const bool walk_forward = move.forward == from_left;
    const VertexTypeId from_type =
        walk_forward ? et.source_type() : et.target_type();
    const VertexTypeId to_type =
        walk_forward ? et.target_type() : et.source_type();
    auto from_it = from.sets.find(from_type);
    if (from_it == from.sets.end() || !support.sets.contains(to_type) ||
        !from_it->second.any()) {
      continue;
    }
    traversals.push_back(
        {&et, to_type, walk_forward ? &et.forward() : &et.reverse(),
         &from_it->second,
         split != nullptr ? &split->owned[to_type] : nullptr});
  }
  expand_traversals(
      traversals, support, /*memo_failed=*/false, stats,
      split != nullptr ? &split->remote : nullptr,
      [&](const EdgeType& et, graph::EdgeIndex e) {
        if (con.self_conds.empty()) return true;
        ev.set_edge(c, et.id(), e);
        return ev.eval_all(con.self_conds);
      },
      [](VertexTypeId, VertexIndex) { return true; });
  return support;
}

Result<Domain> group_closure(const GraphView& graph, const StringPool& pool,
                             const GroupConstraint& g, const Domain& start,
                             bool backward, MatchStats* stats) {
  using Quant = graql::PathGroup::Quant;
  if (g.quant == Quant::kExact && g.count > kMaxExactRepeats) {
    return invalid_argument("path repetition count exceeds " +
                            std::to_string(kMaxExactRepeats));
  }
  // One body iteration: the hops in path order, or in reverse walking
  // backward; stops at the first empty position.
  auto apply_body = [&](Domain d) {
    for (std::size_t k = 0; k < g.hops.size(); ++k) {
      const std::size_t i = backward ? g.hops.size() - 1 - k : k;
      const GroupHop* target = backward && i > 0 ? &g.hops[i - 1] : nullptr;
      d = expand_hop(graph, pool, g.hops[i], d, backward, target, stats);
      if (d.empty()) break;
    }
    return d;
  };
  if (g.quant == Quant::kExact) {
    Domain d = start;
    for (std::uint32_t i = 0; i < g.count && !d.empty(); ++i) {
      d = apply_body(std::move(d));
    }
    return d;
  }
  // * and +: fixpoint over boundary positions.
  Domain reached = apply_body(start);  // 1 iteration
  Domain frontier = reached;
  while (!frontier.empty()) {
    Domain next = apply_body(std::move(frontier));
    next.subtract(reached);
    if (next.empty()) break;
    reached.unite(next);
    frontier = std::move(next);
  }
  if (g.quant == Quant::kStar) {
    // Zero iterations: the start vertices themselves qualify.
    reached.unite(start);
  }
  return reached;
}

bool vertex_passes(const ConstraintNetwork& net, const GraphView& graph,
                   const StringPool& pool, int var, VertexTypeId type,
                   VertexIndex v) {
  const VertexVar& vv = net.vars[var];
  if (vv.self_conds.empty()) return true;
  // Self conditions only dereference this variable's slot, so a cursor
  // span of var+1 entries suffices (the full kEdgeSourceBase-wide band
  // would cost a 64 KiB allocation per call — measured hot in planning).
  std::vector<RowCursor> cursors(static_cast<std::size_t>(var) + 1);
  const VertexType& vt = graph.vertex_type(type);
  cursors[var] = {&vt.source(), vt.representative_row(v)};
  return all_hold(vv.self_conds, cursors, pool);
}

Domain initial_domain(const ConstraintNetwork& net, const GraphView& graph,
                      int var) {
  const VertexVar& vv = net.vars[var];
  Domain d;
  for (const VertexTypeId t : vv.types) {
    const VertexType& vt = graph.vertex_type(t);
    DynamicBitset bits(vt.num_vertices());
    const DynamicBitset* seed_bits = vv.seed ? vv.seed->vertices(t) : nullptr;
    if (vv.seed && seed_bits == nullptr) {
      // Seeded step with no members of this type: empty.
      d.sets.emplace(t, std::move(bits));
      continue;
    }
    if (vv.self_conds.empty()) {
      if (seed_bits != nullptr) {
        bits |= *seed_bits;
      } else {
        bits.set_all();
      }
      d.sets.emplace(t, std::move(bits));
      continue;
    }
    // Condition evaluation per candidate vertex: the scan gathers
    // representative rows of seed-surviving vertices into batches and
    // ANDs the self conjuncts' kernel results (compiled at lowering).
    GEMS_DCHECK(vv.self_cond_kernels.size() == vv.self_conds.size());
    std::vector<relational::EvalScratch> scratches;
    scratches.reserve(vv.self_cond_kernels.size());
    for (const auto& k : vv.self_cond_kernels) {
      scratches.push_back(k->make_scratch());
    }
    std::array<storage::RowIndex, relational::kBatchRows> rows;
    std::array<std::size_t, relational::kBatchRows> verts;
    std::array<std::uint64_t, relational::kBatchWords> acc;
    std::size_t count = 0;
    auto flush = [&] {
      if (count == 0) return;
      const relational::RowBatch rb{&vt.source(), 0, rows.data(), count};
      relational::fill_ones_words(acc.data(), count);
      const std::size_t nw = relational::batch_words(count);
      for (std::size_t k = 0; k < vv.self_cond_kernels.size(); ++k) {
        const relational::ValueVector res =
            vv.self_cond_kernels[k]->eval(rb, scratches[k]);
        // bits ⊆ valid: set bits are exactly the truthy lanes.
        bool any = false;
        for (std::size_t w = 0; w < nw; ++w) {
          acc[w] &= res.bits[w];
          any |= acc[w] != 0;
        }
        if (!any) break;
      }
      relational::for_each_lane(
          acc.data(), count,
          [&](std::size_t lane) { bits.set(verts[lane]); });
      count = 0;
    };
    for (std::size_t v = 0; v < vt.num_vertices(); ++v) {
      if (seed_bits != nullptr && !seed_bits->test(v)) continue;
      rows[count] = vt.representative_row(static_cast<VertexIndex>(v));
      verts[count] = v;
      if (++count == relational::kBatchRows) flush();
    }
    flush();
    d.sets.emplace(t, std::move(bits));
  }
  return d;
}

std::vector<std::map<graph::EdgeTypeId, DynamicBitset>> matched_edge_sets(
    const ConstraintNetwork& net, const GraphView& graph,
    const StringPool& pool, const std::vector<Domain>& domains,
    MatchStats* stats) {
  std::vector<std::map<EdgeTypeId, DynamicBitset>> out(net.edges.size());
  Evaluator ev(net, graph, pool);

  for (std::size_t c = 0; c < net.edges.size(); ++c) {
    const EdgeConstraint& con = net.edges[c];
    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph.edge_type(move.type);
      const Domain& src_dom =
          domains[move.forward ? con.left_var : con.right_var];
      const Domain& dst_dom =
          domains[move.forward ? con.right_var : con.left_var];
      auto src_it = src_dom.sets.find(et.source_type());
      auto dst_it = dst_dom.sets.find(et.target_type());
      if (src_it == src_dom.sets.end() || dst_it == dst_dom.sets.end()) {
        continue;
      }
      // Walk the CSR from the smaller matched domain; every edge appears
      // exactly once in each index, so the walk touches each candidate
      // edge once and never scans the full edge table.
      const bool walk_src = src_it->second.count() <= dst_it->second.count();
      const DynamicBitset& walk_bits =
          walk_src ? src_it->second : dst_it->second;
      const DynamicBitset& other_bits =
          walk_src ? dst_it->second : src_it->second;
      const CsrIndex& index = walk_src ? et.forward() : et.reverse();
      DynamicBitset bits(et.num_edges());
      mark_edges(index, walk_bits, other_bits, bits, stats,
                 [&](graph::EdgeIndex e) {
                   if (con.self_conds.empty()) return true;
                   ev.set_edge(c, move.type, e);
                   return ev.eval_all(con.self_conds);
                 });
      auto it = out[c].find(move.type);
      if (it == out[c].end()) {
        out[c].emplace(move.type, std::move(bits));
      } else {
        it->second |= bits;
      }
    }
  }
  return out;
}

Result<MatchResult> match_network(const ConstraintNetwork& net,
                                  const GraphView& graph,
                                  const StringPool& pool,
                                  const std::vector<int>* order) {
  MatchResult result;
  result.domains.reserve(net.num_vars());
  for (std::size_t v = 0; v < net.num_vars(); ++v) {
    result.domains.push_back(initial_domain(net, graph, static_cast<int>(v)));
  }

  // The edge predicates' cursor band (mutable scratch), built once.
  Evaluator ev(net, graph, pool);

  // Constraint visit order: planner-supplied or natural.
  std::vector<int> visit;
  const std::size_t n_constraints =
      net.edges.size() + net.groups.size() + net.set_eqs.size();
  if (order != nullptr) {
    visit = *order;
    GEMS_CHECK(visit.size() == n_constraints);
  } else {
    visit.resize(n_constraints);
    for (std::size_t i = 0; i < n_constraints; ++i) {
      visit[i] = static_cast<int>(i);
    }
  }

  // Per-group closure cache. The fixpoint only terminates after a pass in
  // which no domain changed, so by convergence the cache necessarily holds
  // the closures of the *final* endpoint domains — the group-elements
  // section below re-requests them and always hits.
  struct ClosureCache {
    bool fwd_valid = false;
    bool bwd_valid = false;
    Domain fwd_in, fwd_out;
    Domain bwd_in, bwd_out;
  };
  std::vector<ClosureCache> closures(net.groups.size());

  auto cached_fwd = [&](std::size_t gi) -> Result<const Domain*> {
    const GroupConstraint& g = net.groups[gi];
    ClosureCache& cc = closures[gi];
    const Domain& in = result.domains[g.left_var];
    if (cc.fwd_valid && cc.fwd_in == in) return &cc.fwd_out;
    cc.fwd_valid = false;
    cc.fwd_in = in;
    GEMS_ASSIGN_OR_RETURN(cc.fwd_out,
                          group_closure(graph, pool, g, in, /*backward=*/false,
                                        &result.stats));
    cc.fwd_valid = true;
    return &cc.fwd_out;
  };
  auto cached_bwd = [&](std::size_t gi) -> Result<const Domain*> {
    const GroupConstraint& g = net.groups[gi];
    ClosureCache& cc = closures[gi];
    const Domain& in = result.domains[g.right_var];
    if (cc.bwd_valid && cc.bwd_in == in) return &cc.bwd_out;
    cc.bwd_valid = false;
    cc.bwd_in = in;
    GEMS_ASSIGN_OR_RETURN(cc.bwd_out,
                          group_closure(graph, pool, g, in, /*backward=*/true,
                                        &result.stats));
    cc.bwd_valid = true;
    return &cc.bwd_out;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.stats.propagation_passes;
    for (const int c : visit) {
      if (static_cast<std::size_t>(c) < net.edges.size()) {
        const EdgeConstraint& con = net.edges[c];
        const auto cu = static_cast<std::size_t>(c);
        Domain right_support =
            edge_support(net, graph, cu, /*from_left=*/true, result.domains,
                         ev, &result.stats);
        changed |= result.domains[con.right_var].intersect(right_support);
        Domain left_support =
            edge_support(net, graph, cu, /*from_left=*/false, result.domains,
                         ev, &result.stats);
        changed |= result.domains[con.left_var].intersect(left_support);
        continue;
      }
      std::size_t idx = static_cast<std::size_t>(c) - net.edges.size();
      if (idx < net.groups.size()) {
        const GroupConstraint& g = net.groups[idx];
        GEMS_ASSIGN_OR_RETURN(const Domain* fwd, cached_fwd(idx));
        changed |= result.domains[g.right_var].intersect(*fwd);
        GEMS_ASSIGN_OR_RETURN(const Domain* bwd, cached_bwd(idx));
        changed |= result.domains[g.left_var].intersect(*bwd);
        continue;
      }
      idx -= net.groups.size();
      const SetEqConstraint& se = net.set_eqs[idx];
      changed |= result.domains[se.var_a].intersect(result.domains[se.var_b]);
      changed |= result.domains[se.var_b].intersect(result.domains[se.var_a]);
    }
  }

  // ---- Matched edge sets (Eq. 5's E(q)) --------------------------------
  result.matched_edges =
      matched_edge_sets(net, graph, pool, result.domains, &result.stats);

  // ---- Group interior elements (for subgraph output) --------------------
  result.group_elements.reserve(net.groups.size());
  for (std::size_t gi = 0; gi < net.groups.size(); ++gi) {
    const GroupConstraint& g = net.groups[gi];
    Subgraph elements("group");
    // On-path boundary vertices: those both forward-reachable from the
    // left domain and backward-reachable from the right domain. The
    // closures of the converged domains are cache hits (see above), so
    // nothing is recomputed here.
    GEMS_ASSIGN_OR_RETURN(const Domain* fwd_ptr, cached_fwd(gi));
    GEMS_ASSIGN_OR_RETURN(const Domain* bwd_ptr, cached_bwd(gi));
    const Domain& fwd = *fwd_ptr;
    const Domain& bwd = *bwd_ptr;
    // Boundary vertices usable mid-path (between iterations).
    Domain boundary = fwd;
    boundary.intersect(bwd);
    Domain start = result.domains[g.left_var];
    start.intersect(bwd);
    boundary.unite(start);
    Domain end = result.domains[g.right_var];
    end.intersect(fwd);
    boundary.unite(end);

    // Mark interior: walk hops forward from the boundary set, culling each
    // position by its backward reachability toward the boundary.
    std::vector<Domain> fwd_pos(g.hops.size() + 1);
    fwd_pos[0] = boundary;
    for (std::size_t i = 0; i < g.hops.size(); ++i) {
      fwd_pos[i + 1] =
          expand_hop(graph, pool, g.hops[i], fwd_pos[i], /*backward=*/false,
                     nullptr, &result.stats);
    }
    std::vector<Domain> bwd_pos(g.hops.size() + 1);
    bwd_pos[g.hops.size()] = boundary;
    for (std::size_t i = g.hops.size(); i-- > 0;) {
      const GroupHop* target = i == 0 ? nullptr : &g.hops[i - 1];
      bwd_pos[i] =
          expand_hop(graph, pool, g.hops[i], bwd_pos[i + 1], /*backward=*/true,
                     target, &result.stats);
    }
    for (std::size_t i = 0; i <= g.hops.size(); ++i) {
      Domain on_path = fwd_pos[i];
      on_path.intersect(bwd_pos[i]);
      for (const auto& [type, bits] : on_path.sets) {
        if (!bits.any()) continue;
        DynamicBitset& out =
            elements.vertices(type, graph.vertex_type(type).num_vertices());
        out |= bits;
      }
    }
    // Mark on-path edges per hop: CSR walk from the smaller on-path
    // endpoint set (never a full edge scan).
    for (std::size_t i = 0; i < g.hops.size(); ++i) {
      Domain from = fwd_pos[i];
      from.intersect(bwd_pos[i]);
      Domain to = fwd_pos[i + 1];
      to.intersect(bwd_pos[i + 1]);
      const GroupHop& hop = g.hops[i];
      for_each_hop_edge_type(graph, hop, [&](const EdgeType& et) {
        const VertexTypeId cur_type =
            hop.reversed ? et.target_type() : et.source_type();
        const VertexTypeId next_type =
            hop.reversed ? et.source_type() : et.target_type();
        auto from_it = from.sets.find(cur_type);
        auto to_it = to.sets.find(next_type);
        if (from_it == from.sets.end() || to_it == to.sets.end()) return;
        DynamicBitset& out = elements.edges(et.id(), et.num_edges());
        const bool walk_from =
            from_it->second.count() <= to_it->second.count();
        // `from` holds the hop's origin position: with a reversed hop the
        // origin is the edge's *target*, so walking from it uses the
        // reverse index.
        const CsrIndex& index = (walk_from != hop.reversed) ? et.forward()
                                                            : et.reverse();
        const DynamicBitset& walk_bits =
            walk_from ? from_it->second : to_it->second;
        const DynamicBitset& other_bits =
            walk_from ? to_it->second : from_it->second;
        mark_edges(index, walk_bits, other_bits, out, &result.stats,
                   [&](graph::EdgeIndex e) {
                     return hop_edge_passes(pool, hop, et, e);
                   });
      });
    }
    result.group_elements.push_back(std::move(elements));
  }

  return result;
}

// ---- Matcher observability ------------------------------------------------

MatcherMetrics::MatcherMetrics(metrics::Registry& registry)
    : queries_(registry.counter("exec.match.queries")),
      passes_(registry.counter("exec.match.passes")),
      edge_traversals_(registry.counter("exec.match.edge_traversals")) {}

void MatcherMetrics::record(const MatchStats& stats) {
  queries_.add();
  passes_.add(stats.propagation_passes);
  edge_traversals_.add(stats.edge_traversals);
}

}  // namespace gems::exec
