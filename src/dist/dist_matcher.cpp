#include "dist/dist_matcher.hpp"

#include <algorithm>
#include <functional>

#include "relational/eval.hpp"

namespace gems::dist {

namespace {

using exec::ConstraintNetwork;
using exec::Domain;
using exec::EdgeConstraint;
using exec::EdgeMove;
using exec::MatchResult;
using graph::CsrIndex;
using graph::EdgeType;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexTypeId;
using relational::RowCursor;

constexpr int kTagActivations = 1;
constexpr int kTagGather = 2;

/// Frontiers narrower than this many words expand on the rank thread even
/// when a pool is available (matches the single-node matcher's threshold).
constexpr std::size_t kParallelFrontierWords = 8;

/// Evaluates an edge constraint's self conditions for one concrete edge.
bool edge_passes(const ConstraintNetwork& net, const GraphView& graph,
                 const StringPool& pool, int con_index,
                 graph::EdgeTypeId type, graph::EdgeIndex e,
                 std::vector<RowCursor>& cursors) {
  const EdgeConstraint& con = net.edges[con_index];
  if (con.self_conds.empty()) return true;
  const EdgeType& et = graph.edge_type(type);
  GEMS_DCHECK(et.attr_table() != nullptr);
  cursors[exec::kEdgeSourceBase + con_index] = {et.attr_table(), e};
  for (const auto& pred : con.self_conds) {
    if (!relational::eval_predicate(*pred, cursors, pool)) return false;
  }
  return true;
}

/// Reads a u32 vertex index and rejects one outside `bits`.
Result<VertexIndex> read_index(ByteReader& r, const DynamicBitset& bits) {
  const std::size_t at = r.pos();
  GEMS_ASSIGN_OR_RETURN(std::uint32_t idx, r.u32());
  if (idx >= bits.size()) {
    return r.error_at(at, "vertex index " + std::to_string(idx) +
                              " out of range for a domain of " +
                              std::to_string(bits.size()));
  }
  return idx;
}

/// Appends one activation record: the vertex's type and index.
void put_activation(std::vector<std::uint8_t>& box, VertexTypeId type,
                    VertexIndex v) {
  ByteWriter w(box);
  w.u32(type);
  w.u32(v);
}

Domain empty_like(const GraphView& graph,
                  const std::vector<VertexTypeId>& types) {
  Domain d;
  for (const VertexTypeId t : types) {
    d.sets.emplace(t, DynamicBitset(graph.vertex_type(t).num_vertices()));
  }
  return d;
}

}  // namespace

Status distributable(const ConstraintNetwork& net) {
  if (!net.cross_preds.empty()) {
    return unimplemented(
        "distributed execution covers the fixpoint; cross-step predicates "
        "are checked during enumeration, which runs on the front-end");
  }
  for (const auto& g : net.groups) {
    if (g.quant == graql::PathGroup::Quant::kExact && g.count > 1024) {
      return invalid_argument("path repetition count exceeds 1024");
    }
  }
  return Status::ok();
}

void run_match_rank(const ConstraintNetwork& net, const GraphView& graph,
                    const StringPool& pool, const VertexPartition& partition,
                    Comm& comm, RankMatchOutput& out, ThreadPool* intra_pool,
                    std::size_t rank_shards) {
  const int rank = comm.rank();
  const int n = comm.size();
  GEMS_DCHECK(intra_pool != nullptr || rank_shards <= 1);

  std::vector<RowCursor> cursors(exec::kEdgeSourceBase + net.edges.size());
  // Private predicate scratch per worker shard of this rank's pool slice.
  std::vector<std::vector<RowCursor>> shard_cursors;
  if (intra_pool != nullptr) {
    shard_cursors.resize(rank_shards);
    for (auto& sc : shard_cursors) {
      sc.resize(exec::kEdgeSourceBase + net.edges.size());
    }
  }

  // ---- Initialize owned domains ------------------------------------
  out.domains.clear();
  out.domains.reserve(net.num_vars());
  for (std::size_t v = 0; v < net.num_vars(); ++v) {
    Domain d = exec::initial_domain(net, graph, static_cast<int>(v));
    for (auto& [type, bits] : d.sets) {
      bits &= partition.owned(rank, type);
    }
    out.domains.push_back(std::move(d));
  }
  comm.barrier();

  // ---- Fixpoint over constraints ------------------------------------
  bool global_changed = true;
  while (global_changed) {
    std::uint64_t local_changed = 0;

    // ---- Distributed group-hop expansion (Fig. 10 closures) -------
    // One BSP exchange per hop: expand owned vertices, send remote
    // activations to their owners, merge, filter locally.
    auto exchange_domain = [&](Domain support,
                               std::vector<std::vector<std::uint8_t>>
                                   outbox) {
      for (int peer = 0; peer < n; ++peer) {
        if (peer == rank) continue;
        comm.send(peer, kTagActivations, outbox[peer]);
      }
      for (int i = 0; i < n - 1; ++i) {
        Message m = comm.recv();
        GEMS_CHECK(m.tag == kTagActivations);
        check_payload(decode_activations(m.payload, support),
                      "group-hop activations");
      }
      comm.barrier();
      return support;
    };

    auto hop_vertex_passes = [&](const exec::GroupHop& hop,
                                 VertexTypeId t, VertexIndex v,
                                 bool backward,
                                 const exec::GroupHop* target_hop) {
      const auto& conds =
          backward ? (target_hop != nullptr ? target_hop->vertex_conds
                                            : hop.vertex_conds)
                   : hop.vertex_conds;
      if (backward && target_hop == nullptr) return true;
      if (conds.empty()) return true;
      const graph::VertexType& vt = graph.vertex_type(t);
      RowCursor cursor{&vt.source(), vt.representative_row(v)};
      const std::span<const RowCursor> span(&cursor, 1);
      for (const auto& cond : conds) {
        if (!relational::eval_predicate(*cond, span, pool)) return false;
      }
      return true;
    };

    auto hop_edge_passes = [&](const exec::GroupHop& hop,
                               const EdgeType& et, graph::EdgeIndex e) {
      if (hop.edge_conds.empty()) return true;
      RowCursor cursor{et.attr_table(), e};
      const std::span<const RowCursor> span(&cursor, 1);
      for (const auto& cond : hop.edge_conds) {
        if (!relational::eval_predicate(*cond, span, pool)) return false;
      }
      return true;
    };

    // Expands one hop from the rank-local (owned) `from` domain;
    // returns the rank-local portion of the result. `backward` walks
    // the hop right-to-left with the preceding position's filters.
    std::function<Domain(const exec::GroupHop&, const Domain&, bool,
                         const exec::GroupHop*)>
        expand_hop_dist = [&](const exec::GroupHop& hop,
                              const Domain& from, bool backward,
                              const exec::GroupHop* target_hop) {
          // Result shape: hop target types (forward) or the preceding
          // position's types (backward; all types at position 0).
          Domain support;
          std::vector<VertexTypeId> out_types;
          if (!backward) {
            out_types = hop.vertex_types;
          } else if (target_hop != nullptr) {
            out_types = target_hop->vertex_types;
          } else {
            out_types.resize(graph.num_vertex_types());
            for (std::size_t t = 0; t < out_types.size(); ++t) {
              out_types[t] = static_cast<VertexTypeId>(t);
            }
          }
          for (const VertexTypeId t : out_types) {
            support.sets.emplace(
                t, DynamicBitset(graph.vertex_type(t).num_vertices()));
          }
          std::vector<std::vector<std::uint8_t>> outbox(
              static_cast<std::size_t>(n));
          auto traverse = [&](const EdgeType& et) {
            const bool walk_forward = backward == hop.reversed;
            const VertexTypeId cur_type =
                walk_forward ? et.source_type() : et.target_type();
            const VertexTypeId out_type =
                walk_forward ? et.target_type() : et.source_type();
            if (!support.sets.contains(out_type)) return;
            auto it = from.sets.find(cur_type);
            if (it == from.sets.end() || !it->second.any()) return;
            const CsrIndex& index =
                walk_forward ? et.forward() : et.reverse();
            it->second.for_each([&](std::size_t v) {
              const auto neighbors =
                  index.neighbors(static_cast<VertexIndex>(v));
              const auto edge_ids =
                  index.edges(static_cast<VertexIndex>(v));
              for (std::size_t i = 0; i < neighbors.size(); ++i) {
                if (!hop_edge_passes(hop, et, edge_ids[i])) continue;
                if (!hop_vertex_passes(hop, out_type, neighbors[i],
                                       backward, target_hop)) {
                  continue;
                }
                const int owner = partition.owner(out_type, neighbors[i]);
                if (owner == rank) {
                  support.sets.at(out_type).set(neighbors[i]);
                } else {
                  put_activation(outbox[owner], out_type, neighbors[i]);
                  ++out.activations_sent;
                }
              }
            });
          };
          if (!hop.edge_types.empty()) {
            for (const auto id : hop.edge_types) {
              traverse(graph.edge_type(id));
            }
          } else {
            for (graph::EdgeTypeId id = 0; id < graph.num_edge_types();
                 ++id) {
              traverse(graph.edge_type(id));
            }
          }
          if (rank == 0) ++out.supersteps;
          return exchange_domain(std::move(support), std::move(outbox));
        };

    auto apply_body_dist = [&](const exec::GroupConstraint& g, Domain d,
                               bool backward) {
      if (!backward) {
        for (const auto& hop : g.hops) {
          d = expand_hop_dist(hop, d, false, nullptr);
        }
      } else {
        for (std::size_t i = g.hops.size(); i-- > 0;) {
          const exec::GroupHop* target =
              i == 0 ? nullptr : &g.hops[i - 1];
          d = expand_hop_dist(g.hops[i], d, true, target);
        }
      }
      return d;
    };

    auto domain_or = [](Domain& into, const Domain& from) {
      for (const auto& [type, bits] : from.sets) {
        auto it = into.sets.find(type);
        if (it == into.sets.end()) {
          into.sets.emplace(type, bits);
        } else {
          it->second |= bits;
        }
      }
    };

    // Distributed closure over the group boundary. All ranks iterate in
    // lockstep (the continue/stop decision is an allreduce).
    auto group_closure_dist =
        [&](const exec::GroupConstraint& g, const Domain& start,
            bool backward) -> Domain {
      using Quant = graql::PathGroup::Quant;
      if (g.quant == Quant::kExact) {
        Domain d = start;
        for (std::uint32_t i = 0; i < g.count; ++i) {
          d = apply_body_dist(g, std::move(d), backward);
        }
        return d;
      }
      Domain reached = apply_body_dist(g, start, backward);
      Domain frontier = reached;
      for (;;) {
        Domain next = apply_body_dist(g, std::move(frontier), backward);
        // Remove already-reached (rank-local; domains are owned parts).
        std::uint64_t fresh = 0;
        for (auto& [type, bits] : next.sets) {
          auto it = reached.sets.find(type);
          if (it != reached.sets.end()) bits.subtract(it->second);
          fresh += bits.count();
        }
        if (comm.allreduce_sum(fresh) == 0) {
          comm.barrier();
          break;
        }
        comm.barrier();
        domain_or(reached, next);
        frontier = std::move(next);
      }
      if (g.quant == Quant::kStar) domain_or(reached, start);
      return reached;
    };

    auto propagate_group = [&](const exec::GroupConstraint& g) {
      Domain fwd =
          group_closure_dist(g, out.domains[g.left_var], false);
      if (out.domains[g.right_var].intersect(fwd)) local_changed = 1;
      Domain bwd =
          group_closure_dist(g, out.domains[g.right_var], true);
      if (out.domains[g.left_var].intersect(bwd)) local_changed = 1;
    };

    auto propagate_edge = [&](std::size_t c, bool from_left) {
      const EdgeConstraint& con = net.edges[c];
      const int from_var = from_left ? con.left_var : con.right_var;
      const int to_var = from_left ? con.right_var : con.left_var;

      // Support for MY owned targets, accumulated from local expansion
      // plus received activations.
      Domain support = empty_like(graph, net.vars[to_var].types);
      std::vector<std::vector<std::uint8_t>> outbox(
          static_cast<std::size_t>(n));

      for (const EdgeMove& move : con.moves) {
        const EdgeType& et = graph.edge_type(move.type);
        const bool walk_forward = move.forward == from_left;
        const VertexTypeId from_type =
            walk_forward ? et.source_type() : et.target_type();
        const VertexTypeId to_type =
            walk_forward ? et.target_type() : et.source_type();
        auto from_it = out.domains[from_var].sets.find(from_type);
        if (from_it == out.domains[from_var].sets.end()) continue;
        if (!support.sets.contains(to_type)) continue;
        const CsrIndex& index =
            walk_forward ? et.forward() : et.reverse();
        const DynamicBitset& frontier = from_it->second;

        // Walks frontier words [wb, we): owned targets set bits, remote
        // targets append (type, vertex) activations to the outbox.
        auto walk = [&](std::size_t wb, std::size_t we,
                        DynamicBitset& bits,
                        std::vector<std::vector<std::uint8_t>>& box,
                        std::uint64_t& sent,
                        std::vector<RowCursor>& shard_scratch) {
          frontier.for_each_in_range(wb, we, [&](std::size_t v) {
            const auto neighbors =
                index.neighbors(static_cast<VertexIndex>(v));
            const auto edge_ids =
                index.edges(static_cast<VertexIndex>(v));
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
              if (!edge_passes(net, graph, pool, static_cast<int>(c),
                               move.type, edge_ids[i], shard_scratch)) {
                continue;
              }
              const int owner = partition.owner(to_type, neighbors[i]);
              if (owner == rank) {
                bits.set(neighbors[i]);
              } else {
                put_activation(box[owner], to_type, neighbors[i]);
                ++sent;
              }
            }
          });
        };

        if (intra_pool == nullptr || rank_shards <= 1 ||
            frontier.num_words() < kParallelFrontierWords) {
          walk(0, frontier.num_words(), support.sets.at(to_type), outbox,
               out.activations_sent, cursors);
          continue;
        }
        // Morsel-style: private shards merged in shard order. Shards
        // cover ascending word ranges, so the concatenated outbox byte
        // stream is exactly the serial stream — deterministic wire
        // bytes for any pool size.
        struct Shard {
          DynamicBitset bits;
          std::vector<std::vector<std::uint8_t>> box;
          std::uint64_t sent = 0;
        };
        std::vector<Shard> shards(rank_shards);
        for (auto& s : shards) {
          s.bits = DynamicBitset(support.sets.at(to_type).size());
          s.box.resize(static_cast<std::size_t>(n));
        }
        intra_pool->parallel_for_ranges(
            frontier.num_words(), rank_shards,
            [&](std::size_t shard, std::size_t wb, std::size_t we) {
              walk(wb, we, shards[shard].bits, shards[shard].box,
                   shards[shard].sent, shard_cursors[shard]);
            });
        for (auto& s : shards) {
          support.sets.at(to_type) |= s.bits;
          for (int peer = 0; peer < n; ++peer) {
            outbox[peer].insert(outbox[peer].end(), s.box[peer].begin(),
                                s.box[peer].end());
          }
          out.activations_sent += s.sent;
        }
      }

      // Exchange: exactly one (possibly empty) message to every peer.
      for (int peer = 0; peer < n; ++peer) {
        if (peer == rank) continue;
        comm.send(peer, kTagActivations, outbox[peer]);
      }
      for (int i = 0; i < n - 1; ++i) {
        Message m = comm.recv();
        GEMS_CHECK(m.tag == kTagActivations);
        check_payload(decode_activations(m.payload, support),
                      "edge activations");
      }

      // Cull my owned portion of the target domain.
      if (out.domains[to_var].intersect(support)) local_changed = 1;
      if (rank == 0) ++out.supersteps;
      comm.barrier();
    };

    for (std::size_t c = 0; c < net.edges.size(); ++c) {
      propagate_edge(c, /*from_left=*/true);
      propagate_edge(c, /*from_left=*/false);
    }
    for (const auto& g : net.groups) propagate_group(g);
    for (const auto& se : net.set_eqs) {
      // Both variables live in the same partitioned space: the
      // intersection is purely rank-local.
      if (out.domains[se.var_a].intersect(out.domains[se.var_b])) {
        local_changed = 1;
      }
      if (out.domains[se.var_b].intersect(out.domains[se.var_a])) {
        local_changed = 1;
      }
    }
    global_changed = comm.allreduce_sum(local_changed) != 0;
    // Keep supersteps aligned: without this barrier a fast rank could
    // inject next-iteration activations into a peer still waiting for
    // its allreduce result.
    comm.barrier();
  }

  // ---- Gather domains on rank 0 --------------------------------------
  if (rank != 0) {
    std::vector<std::uint8_t> payload;
    ByteWriter w(payload);
    for (std::size_t v = 0; v < net.num_vars(); ++v) {
      for (const auto& [type, bits] : out.domains[v].sets) {
        const auto indices = bits.to_indices();
        w.u32(static_cast<std::uint32_t>(v));
        w.u32(type);
        w.u32(static_cast<std::uint32_t>(indices.size()));
        for (const auto idx : indices) w.u32(idx);
      }
    }
    comm.send(0, kTagGather, payload);
    return;
  }
  for (int i = 0; i < n - 1; ++i) {
    Message m = comm.recv();
    GEMS_CHECK(m.tag == kTagGather);
    check_payload(decode_gather(m.payload, out.domains), "gathered domains");
  }
}

Status decode_activations(std::span<const std::uint8_t> payload,
                          Domain& support) {
  ByteReader r = payload_reader(payload);
  while (!r.at_end()) {
    GEMS_ASSIGN_OR_RETURN(std::uint32_t type, r.u32());
    auto it = support.sets.find(static_cast<VertexTypeId>(type));
    if (it == support.sets.end()) {
      // A type outside this exchange's support is not wanted here.
      GEMS_RETURN_IF_ERROR(r.u32().status());
      continue;
    }
    GEMS_ASSIGN_OR_RETURN(VertexIndex v, read_index(r, it->second));
    it->second.set(v);
  }
  return Status::ok();
}

Status decode_gather(std::span<const std::uint8_t> payload,
                     std::vector<Domain>& domains) {
  ByteReader r = payload_reader(payload);
  while (!r.at_end()) {
    const std::size_t at = r.pos();
    GEMS_ASSIGN_OR_RETURN(std::uint32_t var, r.u32());
    if (var >= domains.size()) {
      return r.error_at(at, "unknown variable " + std::to_string(var));
    }
    GEMS_ASSIGN_OR_RETURN(std::uint32_t type, r.u32());
    GEMS_ASSIGN_OR_RETURN(std::uint32_t count, r.count("index", 4));
    auto it = domains[var].sets.find(static_cast<VertexTypeId>(type));
    for (std::uint32_t k = 0; k < count; ++k) {
      if (it == domains[var].sets.end()) {
        // A type this variable does not range over: skip its indices.
        GEMS_RETURN_IF_ERROR(r.u32().status());
        continue;
      }
      GEMS_ASSIGN_OR_RETURN(VertexIndex idx, read_index(r, it->second));
      it->second.set(idx);
    }
  }
  return Status::ok();
}

void encode_domains(const std::vector<Domain>& domains,
                    std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(domains.size()));
  for (const Domain& d : domains) {
    w.u32(static_cast<std::uint32_t>(d.sets.size()));
    for (const auto& [type, bits] : d.sets) {  // std::map: type order
      w.u32(type);
      w.u64(bits.size());
      const auto indices = bits.to_indices();
      w.u32(static_cast<std::uint32_t>(indices.size()));
      for (const auto idx : indices) w.u32(idx);
    }
  }
}

Result<std::vector<Domain>> decode_domains(
    std::span<const std::uint8_t> bytes, const ConstraintNetwork& net,
    const GraphView& graph) {
  ByteReader r = payload_reader(bytes);
  // Every shape field is checked against `net` and `graph` before the
  // bitset it sizes is allocated.
  GEMS_ASSIGN_OR_RETURN(std::uint32_t num_vars, r.u32());
  if (num_vars != net.num_vars()) {
    return r.error_at(0, "domain count " + std::to_string(num_vars) +
                             " != network variable count " +
                             std::to_string(net.num_vars()));
  }
  std::vector<Domain> domains(num_vars);
  for (Domain& d : domains) {
    // A set is at least its 16-byte header.
    GEMS_ASSIGN_OR_RETURN(std::uint32_t num_sets, r.count("vertex set", 16));
    for (std::uint32_t s = 0; s < num_sets; ++s) {
      const std::size_t at = r.pos();
      GEMS_ASSIGN_OR_RETURN(std::uint32_t type, r.u32());
      if (type >= graph.num_vertex_types()) {
        return r.error_at(at, "unknown vertex type " + std::to_string(type));
      }
      const std::size_t vertices =
          graph.vertex_type(static_cast<VertexTypeId>(type)).num_vertices();
      GEMS_ASSIGN_OR_RETURN(std::uint64_t size, r.u64());
      if (size != vertices) {
        return r.error_at(at + 4, "domain size " + std::to_string(size) +
                                      " != vertex type " +
                                      std::to_string(type) + "'s " +
                                      std::to_string(vertices) + " vertices");
      }
      GEMS_ASSIGN_OR_RETURN(std::uint32_t count, r.count("index", 4));
      DynamicBitset bits(vertices);
      for (std::uint32_t k = 0; k < count; ++k) {
        GEMS_ASSIGN_OR_RETURN(VertexIndex idx, read_index(r, bits));
        bits.set(idx);
      }
      if (!d.sets.emplace(static_cast<VertexTypeId>(type), std::move(bits))
               .second) {
        return r.error_at(at, "duplicate vertex type " + std::to_string(type));
      }
    }
  }
  GEMS_RETURN_IF_ERROR(r.expect_end("domains"));
  return domains;
}

Result<MatchResult> match_network_distributed(
    const ConstraintNetwork& net, const GraphView& graph,
    const StringPool& pool, std::size_t num_ranks, DistStats* stats,
    ThreadPool* intra_pool,
    std::vector<std::vector<std::uint8_t>>* transcripts) {
  GEMS_RETURN_IF_ERROR(distributable(net));

  const VertexPartition partition(graph, num_ranks);
  SimCluster cluster(num_ranks);

  // Every rank fans its frontier expansion out to a bounded slice of the
  // shared pool: size / num_ranks chunks (at least one). Rank threads are
  // dedicated (not pool workers), so a rank blocking on its slice's
  // futures can never deadlock the pool.
  const std::size_t rank_shards =
      intra_pool != nullptr
          ? std::max<std::size_t>(1, intra_pool->size() / num_ranks)
          : 1;

  std::vector<RankMatchOutput> states(num_ranks);
  if (transcripts != nullptr) {
    transcripts->assign(num_ranks, {});
  }

  cluster.run([&](RankCtx& ctx) {
    const std::size_t rank = static_cast<std::size_t>(ctx.rank());
    if (transcripts != nullptr) {
      RecordingComm rec(ctx);
      run_match_rank(net, graph, pool, partition, rec, states[rank],
                     intra_pool, rank_shards);
      (*transcripts)[rank] = std::move(rec.transcript());
    } else {
      run_match_rank(net, graph, pool, partition, ctx, states[rank],
                     intra_pool, rank_shards);
    }
  });

  // ---- Assemble the MatchResult on the "front-end" -----------------------
  MatchResult result;
  result.domains = std::move(states[0].domains);

  // Matched edges, computed from the converged domains with the shared
  // CSR-walk helper (same code path as the single-node matcher, never a
  // full edge scan).
  result.matched_edges = exec::matched_edge_sets(
      net, graph, pool, result.domains, /*stats=*/nullptr, intra_pool);

  if (stats != nullptr) {
    stats->ranks = num_ranks;
    stats->supersteps = states[0].supersteps;
    stats->messages = cluster.total_messages();
    stats->bytes = cluster.total_bytes();
    stats->activations = 0;
    stats->bytes_per_rank.clear();
    for (const auto& s : cluster.rank_stats()) {
      stats->bytes_per_rank.push_back(s.bytes);
    }
    for (const auto& st : states) stats->activations += st.activations_sent;
  }
  return result;
}

}  // namespace gems::dist
