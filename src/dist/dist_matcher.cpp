#include "dist/dist_matcher.hpp"

#include <algorithm>

namespace gems::dist {

namespace {

using exec::ConstraintNetwork;
using exec::Domain;
using exec::MatchResult;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexTypeId;

constexpr int kTagActivations = 1;
constexpr int kTagGather = 2;

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

}  // namespace

Status distributable(const ConstraintNetwork& net) {
  if (!net.cross_preds.empty()) {
    return unimplemented(
        "distributed execution covers the fixpoint; cross-step predicates "
        "are checked during enumeration, which runs on the front-end");
  }
  for (const auto& g : net.groups) {
    if (g.quant == graql::PathGroup::Quant::kExact &&
        g.count > exec::kMaxExactRepeats) {
      return invalid_argument("path repetition count exceeds " +
                              std::to_string(exec::kMaxExactRepeats));
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
  // The expansions fan out over this rank's slice of the pool, with
  // private predicate scratch per shard.
  ThreadPool* const slice = rank_shards > 1 ? intra_pool : nullptr;
  std::vector<exec::Evaluator> evs(rank_shards,
                                   exec::Evaluator(net, graph, pool));
  // Every expansion sets the targets this rank owns and lists the rest.
  std::vector<graph::VertexRef> remote;
  const exec::OwnedSplit split{partition.owned(rank), remote};

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

  // One BSP superstep: route the expansion's remote targets to their
  // owners in walk order, send exactly one (possibly empty) activation
  // message to every peer, and set the activations received in `support`.
  auto exchange = [&](Domain& support, const char* what) {
    std::vector<std::vector<std::uint8_t>> outbox(static_cast<std::size_t>(n));
    for (const graph::VertexRef& v : remote) {
      ByteWriter w(outbox[partition.owner(v.type, v.index)]);
      w.u32(v.type);
      w.u32(v.index);
    }
    out.activations_sent += remote.size();
    remote.clear();
    for (int peer = 0; peer < n; ++peer) {
      if (peer == rank) continue;
      comm.send(peer, kTagActivations, outbox[peer]);
    }
    for (int i = 0; i < n - 1; ++i) {
      Message m = comm.recv();
      GEMS_CHECK(m.tag == kTagActivations);
      check_payload(decode_activations(m.payload, support), what);
    }
    // Keep supersteps aligned: no rank starts the next exchange before
    // every rank has drained this one.
    comm.barrier();
    if (rank == 0) ++out.supersteps;
  };

  // Distributed closure over the group boundary (Fig. 10): one exchange
  // per hop. All ranks iterate in lockstep — no rank-local early exit;
  // the continue/stop decision is an allreduce.
  auto closure = [&](const exec::GroupConstraint& g, const Domain& start,
                     bool backward) {
    auto apply_body = [&](Domain d) {
      for (std::size_t k = 0; k < g.hops.size(); ++k) {
        const std::size_t i = backward ? g.hops.size() - 1 - k : k;
        const exec::GroupHop* target =
            backward && i > 0 ? &g.hops[i - 1] : nullptr;
        d = exec::expand_hop(graph, pool, g.hops[i], d, backward, target,
                             nullptr, slice, rank_shards, &split);
        exchange(d, "group-hop activations");
      }
      return d;
    };
    using Quant = graql::PathGroup::Quant;
    if (g.quant == Quant::kExact) {
      Domain d = start;
      for (std::uint32_t i = 0; i < g.count; ++i) d = apply_body(std::move(d));
      return d;
    }
    Domain reached = apply_body(start);
    Domain frontier = reached;
    for (;;) {
      Domain next = apply_body(std::move(frontier));
      next.subtract(reached);  // rank-local: domains are owned parts
      const bool done = comm.allreduce_sum(next.count()) == 0;
      comm.barrier();
      if (done) break;
      reached.unite(next);
      frontier = std::move(next);
    }
    if (g.quant == Quant::kStar) reached.unite(start);
    return reached;
  };

  // ---- Fixpoint over constraints ------------------------------------
  bool global_changed = true;
  while (global_changed) {
    std::uint64_t local_changed = 0;
    for (std::size_t c = 0; c < net.edges.size(); ++c) {
      const exec::EdgeConstraint& con = net.edges[c];
      for (const bool from_left : {true, false}) {
        Domain support = exec::edge_support(net, graph, c, from_left,
                                            out.domains, evs, nullptr, slice,
                                            &split);
        exchange(support, "edge activations");
        // Cull my owned portion of the target domain.
        const int to_var = from_left ? con.right_var : con.left_var;
        if (out.domains[to_var].intersect(support)) local_changed = 1;
      }
    }
    for (const auto& g : net.groups) {
      const Domain fwd = closure(g, out.domains[g.left_var], false);
      if (out.domains[g.right_var].intersect(fwd)) local_changed = 1;
      const Domain bwd = closure(g, out.domains[g.right_var], true);
      if (out.domains[g.left_var].intersect(bwd)) local_changed = 1;
    }
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
