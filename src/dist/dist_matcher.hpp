// Distributed path matching over a cluster of ranks: the Eq. 5 culling
// fixpoint executed as bulk-synchronous supersteps — the execution
// structure of the paper's "massively parallel execution of graph queries
// over the database primarily resident on the aggregated memory of the
// compute nodes".
//
// The rank body (`run_match_rank`) is the single-node algorithm over a
// partitioned frontier, literally: every expansion is a call to the
// matcher's hop kernels (exec::edge_support, exec::expand_hop) with the
// rank's ownership split. The kernel sets the targets this rank owns and
// lists the others in serial walk order; the body routes that list to the
// owners as activations, exchanges them, agrees on convergence with an
// allreduce and finally gathers the domains on rank 0. It keeps no
// expansion, condition check or frontier walk of its own.
//
// The body is transport-agnostic: it talks BSP through `dist::Comm`, so
// the same code runs over the in-process SimCluster
// (match_network_distributed below) and over real sockets (src/cluster/).
// Byte-identity of the two send streams is the wire path's correctness
// oracle.
//
// Supported networks: edge constraints (any direction/variant), set-label
// constraints, and regex-group closures. Cross predicates fall back to
// single-node execution (they are checked during enumeration, which runs
// on the front-end).
#pragma once

#include "common/status.hpp"
#include "dist/partition.hpp"
#include "dist/runtime.hpp"
#include "exec/matcher.hpp"

namespace gems::dist {

struct DistStats {
  std::size_t ranks = 0;
  std::size_t supersteps = 0;       // constraint-direction exchanges
  std::uint64_t messages = 0;       // network messages (excl. self-sends)
  std::uint64_t bytes = 0;          // payload bytes
  std::uint64_t activations = 0;    // remote vertex activations sent
  std::vector<std::uint64_t> bytes_per_rank;
};

/// Checks the structural preconditions of the distributed fixpoint.
/// kUnimplemented = "run this network on a single node instead".
Status distributable(const exec::ConstraintNetwork& net);

/// One rank's outputs from run_match_rank.
struct RankMatchOutput {
  /// This rank's owned portion of every variable domain — except on rank
  /// 0, which ends holding the fully merged domains (the kTagGather
  /// hand-back ships every other rank's portion there).
  std::vector<exec::Domain> domains;
  std::uint64_t activations_sent = 0;
  std::size_t supersteps = 0;  // counted on rank 0 only
};

/// Runs one rank's share of the distributed fixpoint over `comm`.
/// Preconditions: distributable(net).is_ok(), and `partition` built with
/// comm.size() ranks. `rank_shards` > 1 fans each frontier expansion out
/// over `intra_pool` (which must then be non-null); the wire byte stream
/// is identical for any shard count.
void run_match_rank(const exec::ConstraintNetwork& net,
                    const graph::GraphView& graph, const StringPool& pool,
                    const VertexPartition& partition, Comm& comm,
                    RankMatchOutput& out, ThreadPool* intra_pool = nullptr,
                    std::size_t rank_shards = 1);

/// Decoders of the rank body's payloads. Over cluster::RankChannel these
/// bytes come from another process, so each rejects a partial record, an
/// unknown variable and an out-of-range vertex index with kParseError; the
/// rank body fail-stops on such an error (dist::check_payload).
///
/// Activations: (u32 vertex type, u32 vertex index) records. Sets each
/// vertex in `support`; a type `support` does not hold is skipped.
Status decode_activations(std::span<const std::uint8_t> payload,
                          exec::Domain& support);
/// Gathered domains: (u32 variable, u32 vertex type, u32 count, count x
/// u32 vertex index) records, ORed into `domains`; a type the variable
/// does not range over is skipped.
Status decode_gather(std::span<const std::uint8_t> payload,
                     std::vector<exec::Domain>& domains);

/// Codec for the rank-0 → coordinator domain hand-back (control plane, not
/// part of the recorded BSP stream). Every per-variable, per-type bitset
/// travels with its size; decode_domains rejects a variable count other
/// than `net`'s, an unknown vertex type and a size other than the type's
/// vertex count in `graph` — the graph the ranks were synced from — before
/// allocating anything.
void encode_domains(const std::vector<exec::Domain>& domains,
                    std::vector<std::uint8_t>& out);
Result<std::vector<exec::Domain>> decode_domains(
    std::span<const std::uint8_t> bytes, const exec::ConstraintNetwork& net,
    const graph::GraphView& graph);

/// Runs the distributed fixpoint on `num_ranks` simulated compute nodes
/// and returns the same domains/matched-edges a single-node
/// match_network() produces (asserted by tests). `intra_pool` (may be
/// null = serial) parallelizes each rank's frontier expansion; every rank
/// fans out to a bounded slice of the pool (size / num_ranks chunks) so
/// ranks contend fairly for the shared workers. Results are bit-identical
/// with or without the pool. When `transcripts` is non-null it receives
/// each rank's recorded send stream (the byte-identity oracle's reference
/// side).
Result<exec::MatchResult> match_network_distributed(
    const exec::ConstraintNetwork& net, const graph::GraphView& graph,
    const StringPool& pool, std::size_t num_ranks, DistStats* stats,
    ThreadPool* intra_pool = nullptr,
    std::vector<std::vector<std::uint8_t>>* transcripts = nullptr);

}  // namespace gems::dist
