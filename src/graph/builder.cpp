#include "graph/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <optional>
#include <ranges>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/id_table.hpp"
#include "relational/batch.hpp"
#include "relational/eval.hpp"
#include "relational/operators.hpp"
#include "relational/row_key.hpp"

namespace gems::graph {

using relational::BoundExpr;
using relational::BoundExprPtr;
using relational::ExprPtr;
using relational::ParamMap;
using relational::RowCursor;
using relational::Slot;
using storage::ColumnIndex;
using storage::RowIndex;
using storage::Table;
using storage::TablePtr;

Status add_vertex_type(GraphView& graph, const VertexDecl& decl,
                       const storage::TableCatalog& tables, StringPool& pool,
                       const ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(TablePtr source, tables.find(decl.table));

  std::vector<ColumnIndex> key_cols;
  key_cols.reserve(decl.key_columns.size());
  for (const auto& k : decl.key_columns) {
    auto col = source->schema().find(k);
    if (!col) {
      return not_found("vertex '" + decl.name + "': table '" + decl.table +
                       "' has no column '" + k + "'");
    }
    key_cols.push_back(*col);
  }

  BoundExprPtr filter;
  if (decl.where) {
    relational::TableScope scope(*source, decl.name);
    GEMS_ASSIGN_OR_RETURN(
        filter, relational::bind_predicate(decl.where, scope, params, pool));
  }

  GEMS_ASSIGN_OR_RETURN(
      VertexType vt,
      VertexType::build(graph.next_vertex_type_id(), decl.name,
                        std::move(source), std::move(key_cols),
                        std::move(filter)));
  return graph.add_vertex_type(std::move(vt));
}

namespace {

// A participant in the Eq. 2 join: the source-vertex table, the
// target-vertex table, or an associated table.
struct JoinSource {
  std::vector<std::string> qualifiers;  // names that address this source
  TablePtr table;
  const VertexType* vertex = nullptr;  // non-null for endpoint sources
};

constexpr std::size_t kMaxSources = 8;

/// Scope resolving `qualifier.column` across all join sources.
class MultiSourceScope final : public relational::Scope {
 public:
  explicit MultiSourceScope(std::span<const JoinSource> sources)
      : sources_(sources) {}

  Result<Slot> resolve(std::string_view qualifier,
                       std::string_view column) const override {
    if (qualifier.empty()) {
      // Bare column: unique across all sources or ambiguous.
      std::optional<Slot> found;
      for (std::size_t s = 0; s < sources_.size(); ++s) {
        auto col = sources_[s].table->schema().find(column);
        if (!col) continue;
        if (found) {
          return type_error("column '" + std::string(column) +
                            "' is ambiguous across the edge's tables; "
                            "qualify it");
        }
        found = Slot{static_cast<std::uint16_t>(s), *col,
                     sources_[s].table->schema().column(*col).type};
      }
      if (!found) {
        return not_found("no edge source has a column '" +
                         std::string(column) + "'");
      }
      return *found;
    }
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      const auto& quals = sources_[s].qualifiers;
      if (std::find(quals.begin(), quals.end(), qualifier) == quals.end()) {
        continue;
      }
      auto col = sources_[s].table->schema().find(column);
      if (!col) {
        return not_found("'" + std::string(qualifier) +
                         "' has no column '" + std::string(column) + "'");
      }
      return Slot{static_cast<std::uint16_t>(s), *col,
                  sources_[s].table->schema().column(*col).type};
    }
    return not_found("unknown qualifier '" + std::string(qualifier) +
                     "' in edge declaration");
  }

 private:
  std::span<const JoinSource> sources_;
};

/// Bit s is set for every join source s a bound expression references.
std::uint32_t referenced_sources(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExpr::Kind::kColumnRef:
      return 1u << e.slot.source;
    case BoundExpr::Kind::kConst:
      return 0;
    case BoundExpr::Kind::kUnary:
      return referenced_sources(*e.lhs);
    case BoundExpr::Kind::kBinary:
      return referenced_sources(*e.lhs) | referenced_sources(*e.rhs);
  }
  GEMS_UNREACHABLE("bad bound expression kind");
}

/// Points every column reference of `e` at source 0, so a conjunct over
/// one join source compiles as a relational operator predicate.
void rebase_to_source0(BoundExpr& e) {
  if (e.kind == BoundExpr::Kind::kColumnRef) e.slot.source = 0;
  if (e.lhs) rebase_to_source0(*e.lhs);
  if (e.rhs) rebase_to_source0(*e.rhs);
}

/// `a and b` over two bound predicates.
BoundExprPtr conjoin(BoundExprPtr a, BoundExprPtr b) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExpr::Kind::kBinary;
  e->type = a->type;
  e->bop = relational::BinaryOp::kAnd;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

struct JoinConjunct {
  Slot left;
  Slot right;
};

/// A join source's candidate rows, ascending, and for an endpoint each
/// row's vertex (parallel to `rows`; empty for an association table).
struct Candidates {
  std::vector<RowIndex> rows;
  std::vector<VertexIndex> vertices;
};

/// Tuple store. Tuple t holds one row per join source, then the vertex of
/// source 0 and of source 1 (the endpoints). Tuples fill fixed 128 KiB
/// blocks, so no allocation grows with the join: glibc raises its mmap
/// threshold to the largest mmapped block freed, and a multi-megabyte
/// join buffer freed at set-up would keep later buffers of that size on
/// the heap, resident, for the life of the process.
class TupleSet {
 public:
  TupleSet(std::size_t width, bool distinct_pairs)
      : distinct_pairs(distinct_pairs),
        width_(width),
        per_block_(kBlockWords / width) {}

  // True when no two tuples share the start's vertex: the start is a
  // one-to-one endpoint and every attach was a key probe (at most one
  // match), so the tuples' (source, target) pairs are distinct.
  bool distinct_pairs;

  std::size_t size() const { return size_; }
  std::span<const std::uint32_t> tuple(std::size_t t) const {
    return {blocks_[t / per_block_].data() + t % per_block_ * width_, width_};
  }
  void push(std::span<const std::uint32_t> tuple) {
    if (size_ % per_block_ == 0) {
      blocks_.emplace_back();
      blocks_.back().reserve(per_block_ * width_);
    }
    blocks_.back().insert(blocks_.back().end(), tuple.begin(), tuple.end());
    ++size_;
  }

 private:
  static constexpr std::size_t kBlockWords = 32 * 1024;

  std::size_t width_;
  std::size_t per_block_;
  std::size_t size_ = 0;
  std::vector<std::vector<std::uint32_t>> blocks_;
};

/// The build side of a hashed attach: candidate indices grouped by key,
/// laid out CSR-style, each group ascending (the candidates' order). Rows
/// with a NULL key cell join nothing (SQL `=`) and are left out.
class KeyBuckets {
 public:
  KeyBuckets(const Table& table, std::vector<ColumnIndex> cols,
             std::span<const RowIndex> rows)
      : table_(table), cols_(std::move(cols)) {
    std::vector<std::uint32_t> group_of(rows.size(), IdTable::kNone);
    std::array<std::uint64_t, relational::kBatchRows> hashes;
    std::array<std::uint8_t, relational::kBatchRows> has_null;
    for (std::size_t b = 0; b < rows.size(); b += relational::kBatchRows) {
      const std::size_t n = std::min(relational::kBatchRows, rows.size() - b);
      relational::hash_row_key_batch(table_, 0, rows.data() + b, n, cols_,
                                     hashes.data(), has_null.data());
      for (std::size_t i = 0; i < n; ++i) {
        if (has_null[i] != 0) continue;
        const RowIndex r = rows[b + i];
        std::uint32_t g = index_.find(hashes[i], [&](std::uint32_t id) {
          return relational::row_keys_equal(table_, first_rows_[id], cols_,
                                            table_, r, cols_);
        });
        if (g == IdTable::kNone) {
          g = static_cast<std::uint32_t>(first_rows_.size());
          index_.insert(hashes[i], g);
          first_rows_.push_back(r);
        }
        group_of[b + i] = g;
      }
    }
    offsets_.assign(first_rows_.size() + 1, 0);
    for (const std::uint32_t g : group_of) {
      if (g != IdTable::kNone) ++offsets_[g + 1];
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    members_.resize(offsets_.back());
    std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < group_of.size(); ++i) {
      if (group_of[i] != IdTable::kNone) {
        members_[fill[group_of[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// Indices of the candidates whose key equals `cells`, ascending.
  std::span<const std::uint32_t> find(
      std::span<const relational::KeyCell> cells) const {
    const std::uint32_t g = index_.find(
        relational::hash_cell_key(cells), [&](std::uint32_t id) {
          return relational::cell_key_equals(cells, table_, first_rows_[id],
                                             cols_);
        });
    if (g == IdTable::kNone) return {};
    return {members_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }

 private:
  const Table& table_;
  std::vector<ColumnIndex> cols_;
  IdTable index_;                       // key -> group
  std::vector<RowIndex> first_rows_;    // per group: its first row
  std::vector<std::uint32_t> offsets_;  // group g: members_[offsets_[g]..)
  std::vector<std::uint32_t> members_;
};

/// A set of fixed-width keys of 32-bit words: the keys back to back, and
/// an IdTable from key hash to key number.
class KeySet {
 public:
  explicit KeySet(std::size_t width) : width_(width) {}

  /// Adds `key`; false when it was already in the set.
  bool insert(std::span<const std::uint32_t> key) {
    GEMS_DCHECK(key.size() == width_);
    std::uint64_t hash = 0x9e3779b97f4a7c15ull;
    for (const std::uint32_t w : key) hash = mix64(hash ^ w);
    const auto equal = [&](std::uint32_t id) {
      return std::equal(key.begin(), key.end(), keys_.begin() + id * width_);
    };
    if (index_.find(hash, equal) != IdTable::kNone) return false;
    index_.insert(hash, static_cast<std::uint32_t>(keys_.size() / width_));
    keys_.insert(keys_.end(), key.begin(), key.end());
    return true;
  }

 private:
  std::size_t width_;
  std::vector<std::uint32_t> keys_;
  IdTable index_;
};

/// The Eq. 2 join, shared by the full build (delta == nullptr: one pass
/// over every candidate row) and incremental maintenance (one pass per
/// occurrence of the ingested table, restricted to newly appended rows,
/// appended after the base's edges). Edge ordering is deterministic for a
/// given operation sequence — WAL replay re-runs the identical per-record
/// path, so recovered state is byte-identical to the live build.
Result<EdgeType> build_edge_type(const GraphView& graph, const EdgeDecl& decl,
                                 const storage::TableCatalog& tables,
                                 StringPool& pool, const ParamMap& params,
                                 EdgeTypeId id, const EdgeDelta* delta) {
  if (!decl.where) {
    return invalid_argument("edge '" + decl.name +
                            "' requires a where clause");
  }
  GEMS_ASSIGN_OR_RETURN(VertexTypeId src_id,
                        graph.find_vertex_type(decl.source.vertex_type));
  GEMS_ASSIGN_OR_RETURN(VertexTypeId dst_id,
                        graph.find_vertex_type(decl.target.vertex_type));
  const VertexType& src_vt = graph.vertex_type(src_id);
  const VertexType& dst_vt = graph.vertex_type(dst_id);

  // ---- Assemble the join sources --------------------------------------
  std::vector<JoinSource> sources;
  const bool same_endpoint_type = src_id == dst_id;
  auto endpoint_qualifiers = [&](const EdgeEndpoint& ep) {
    std::vector<std::string> quals;
    if (!ep.alias.empty()) quals.push_back(ep.alias);
    // The bare type name addresses an endpoint only when unambiguous
    // (Fig. 2's subclass edge uses `TypeVtx as A, TypeVtx as B`).
    if (!same_endpoint_type) quals.push_back(ep.vertex_type);
    return quals;
  };
  if (same_endpoint_type &&
      (decl.source.alias.empty() || decl.target.alias.empty())) {
    return invalid_argument("edge '" + decl.name +
                            "': endpoints of the same vertex type need "
                            "'as' aliases");
  }
  sources.push_back(JoinSource{endpoint_qualifiers(decl.source),
                               src_vt.source_ptr(), &src_vt});
  sources.push_back(JoinSource{endpoint_qualifiers(decl.target),
                               dst_vt.source_ptr(), &dst_vt});
  for (const auto& name : decl.assoc_tables) {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, tables.find(name));
    sources.push_back(JoinSource{{name}, std::move(t), nullptr});
  }
  if (sources.size() > kMaxSources) {
    return invalid_argument("edge '" + decl.name + "' joins too many tables");
  }
  const std::size_t n_sources = sources.size();

  // ---- Bind and classify the WHERE conjuncts --------------------------
  // A conjunct over one source joins that source's filter (the AND of its
  // conjuncts, rebased to source 0 for the relational kernels).
  MultiSourceScope scope(sources);
  std::vector<BoundExprPtr> filters(n_sources);
  std::vector<JoinConjunct> join_conjuncts;
  std::vector<BoundExprPtr> residual;

  for (const ExprPtr& conjunct : relational::split_conjuncts(decl.where)) {
    GEMS_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        relational::bind_predicate(conjunct, scope, params, pool));
    const std::uint32_t referenced = referenced_sources(*bound);
    if (std::popcount(referenced) <= 1) {
      const int s = referenced == 0 ? 0 : std::countr_zero(referenced);
      rebase_to_source0(*bound);
      BoundExprPtr& filter = filters[static_cast<std::size_t>(s)];
      filter = filter ? conjoin(std::move(filter), std::move(bound))
                      : std::move(bound);
      continue;
    }
    // column = column across exactly two sources -> equi-join conjunct.
    if (std::popcount(referenced) == 2 &&
        bound->kind == BoundExpr::Kind::kBinary &&
        bound->bop == relational::BinaryOp::kEq &&
        bound->lhs->kind == BoundExpr::Kind::kColumnRef &&
        bound->rhs->kind == BoundExpr::Kind::kColumnRef) {
      if (bound->lhs->slot.type.kind != bound->rhs->slot.type.kind) {
        return type_error("edge '" + decl.name + "': join condition '" +
                          conjunct->to_string() +
                          "' compares different types");
      }
      join_conjuncts.push_back({bound->lhs->slot, bound->rhs->slot});
      continue;
    }
    residual.push_back(std::move(bound));
  }

  // ---- Candidate rows, scanned only for the sources a pass reads ------
  // Rows of source s from `first_row` on that pass its vertex filter and
  // its single-source conjuncts, with each endpoint row's vertex. A
  // one-to-one endpoint's candidates are a subset of its ascending
  // representative rows, so one merge walk numbers them; a many-to-one
  // endpoint looks each candidate's key up once.
  auto scan_candidates = [&](std::size_t s, RowIndex first_row) {
    Candidates c;
    const Table& t = *sources[s].table;
    if (filters[s] != nullptr) {
      c.rows = relational::filter_rows(t, *filters[s], first_row);
    } else {
      c.rows.resize(t.num_rows() - first_row);
      std::iota(c.rows.begin(), c.rows.end(), first_row);
    }
    const VertexType* vt = sources[s].vertex;
    if (vt == nullptr) return c;
    std::erase_if(c.rows,
                  [&](RowIndex r) { return !vt->matching_rows().test(r); });
    c.vertices.reserve(c.rows.size());
    if (!vt->one_to_one()) {
      for (const RowIndex r : c.rows) {
        c.vertices.push_back(vt->find_by_key(t, r, vt->key_columns()));
      }
      return c;
    }
    const ChunkedArray<RowIndex>& reps = vt->representative_rows();
    std::size_t lo = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, reps.size()),
        [&](std::size_t v) { return reps[v] < first_row; });
    for (const RowIndex r : c.rows) {
      while (lo < reps.size() && reps[lo] < r) ++lo;
      c.vertices.push_back(lo < reps.size() && reps[lo] == r
                               ? static_cast<VertexIndex>(lo)
                               : kInvalidVertex);
    }
    return c;
  };
  std::vector<std::optional<Candidates>> full_candidates(n_sources);
  auto candidates_of = [&](std::size_t s) -> const Candidates& {
    if (!full_candidates[s]) full_candidates[s] = scan_candidates(s, 0);
    return *full_candidates[s];
  };

  // An attach may probe source s's vertex key index instead of hashing its
  // candidates when s is a one-to-one endpoint without single-source
  // conjuncts and the conjuncts linking it cover exactly its key columns.
  // Returns, per key column, the index of its linking conjunct in
  // `new_cols`; nullopt when the attach must hash.
  auto key_probe_order = [&](std::size_t s,
                             const std::vector<ColumnIndex>& new_cols)
      -> std::optional<std::vector<std::size_t>> {
    const VertexType* vt = sources[s].vertex;
    if (vt == nullptr || !vt->one_to_one() || filters[s] != nullptr) {
      return std::nullopt;
    }
    const auto& keys = vt->key_columns();
    if (new_cols.size() != keys.size()) return std::nullopt;
    std::vector<std::size_t> order;
    for (const ColumnIndex k : keys) {
      const auto it = std::find(new_cols.begin(), new_cols.end(), k);
      if (it == new_cols.end()) return std::nullopt;
      order.push_back(static_cast<std::size_t>(it - new_cols.begin()));
    }
    return order;
  };

  // ---- Join: start at `start`, greedily attach connected sources --------
  // `first_row[s]` restricts source s to its rows from there on: a delta
  // pass restricts its start occurrence to the appended suffix.
  const std::size_t width = n_sources + 2;
  auto run_join = [&](std::size_t start,
                      const std::vector<RowIndex>& first_row)
      -> Result<TupleSet> {
    TupleSet tuples(width, start < 2 && sources[start].vertex->one_to_one());
    std::array<std::uint32_t, kMaxSources + 2> t{};
    {
      const Candidates cand = scan_candidates(start, first_row[start]);
      for (std::size_t i = 0; i < cand.rows.size(); ++i) {
        t[start] = cand.rows[i];
        if (start < 2) t[n_sources + start] = cand.vertices[i];
        tuples.push({t.data(), width});
      }
    }
    std::vector<bool> joined(n_sources, false);
    joined[start] = true;

    std::size_t joined_count = 1;
    while (joined_count < n_sources) {
      // Find an unjoined source connected to the joined set.
      std::size_t next = n_sources;
      for (std::size_t s = 0; s < n_sources && next == n_sources; ++s) {
        if (joined[s]) continue;
        for (const auto& jc : join_conjuncts) {
          const bool links =
              (jc.left.source == s && joined[jc.right.source]) ||
              (jc.right.source == s && joined[jc.left.source]);
          if (links) {
            next = s;
            break;
          }
        }
      }
      if (next == n_sources) {
        return invalid_argument(
            "edge '" + decl.name +
            "': where clause does not connect all tables with equality "
            "conditions (cross products are not supported)");
      }

      // Composite key: all conjuncts linking `next` to the joined set.
      std::vector<ColumnIndex> new_cols;
      std::vector<Slot> old_slots;
      for (const auto& jc : join_conjuncts) {
        if (jc.left.source == next && joined[jc.right.source]) {
          new_cols.push_back(jc.left.column);
          old_slots.push_back(jc.right);
        } else if (jc.right.source == next && joined[jc.left.source]) {
          new_cols.push_back(jc.right.column);
          old_slots.push_back(jc.left);
        }
      }

      // The probe key: the joined side's cells of `old_slots`, skipping a
      // tuple with a NULL cell (SQL `=` never matches NULL, but the key
      // index may hold a NULL-keyed vertex).
      std::vector<relational::KeyCell> cells(old_slots.size());
      auto gather_cells = [&](std::span<const std::uint32_t> tuple) {
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
          const storage::Column& column =
              sources[old_slots[i].source].table->column(old_slots[i].column);
          const RowIndex row = tuple[old_slots[i].source];
          if (column.is_null(row)) return false;
          cells[i] = {&column, row};
        }
        return true;
      };
      TupleSet next_tuples(width, tuples.distinct_pairs);
      auto extend = [&](std::span<const std::uint32_t> tuple, RowIndex row,
                        VertexIndex v) {
        std::copy(tuple.begin(), tuple.end(), t.begin());
        t[next] = row;
        if (next < 2) t[n_sources + next] = v;
        next_tuples.push({t.data(), width});
      };

      if (auto order = key_probe_order(next, new_cols)) {
        // Key-probe attach: the endpoint's key index is the hash table.
        // A hit is the vertex; its one row is the representative row.
        const VertexType& vt = *sources[next].vertex;
        std::vector<Slot> key_slots;
        for (const std::size_t i : *order) key_slots.push_back(old_slots[i]);
        old_slots = std::move(key_slots);
        for (std::size_t k = 0; k < tuples.size(); ++k) {
          const auto tuple = tuples.tuple(k);
          if (!gather_cells(tuple)) continue;
          const VertexIndex v = vt.find_by_cells(cells);
          if (v == kInvalidVertex) continue;
          const RowIndex row = vt.representative_rows()[v];
          if (row < first_row[next]) continue;  // outside this pass's rows
          extend(tuple, row, v);
        }
      } else {
        const Candidates& cand = candidates_of(next);
        const KeyBuckets buckets(*sources[next].table, std::move(new_cols),
                                 cand.rows);
        next_tuples.distinct_pairs = false;
        for (std::size_t k = 0; k < tuples.size(); ++k) {
          const auto tuple = tuples.tuple(k);
          if (!gather_cells(tuple)) continue;
          for (const std::uint32_t i : buckets.find(cells)) {
            extend(tuple, cand.rows[i],
                   next < 2 ? cand.vertices[i] : kInvalidVertex);
          }
        }
      }
      tuples = std::move(next_tuples);
      joined[next] = true;
      ++joined_count;
    }
    return tuples;
  };

  // ---- Collapse and dedup -------------------------------------------------
  // Fig. 5 semantics: edges collapse onto distinct (source, target) vertex
  // pairs when an endpoint does not identify join rows one-to-one. That is
  // the case when the endpoint's vertex key collapses rows (data
  // many-to-one) *or* when the join reaches past the key into row-level
  // columns (e.g. Fig. 4 joins P.id while the key is P.country) — the
  // latter makes the rule stable under data that is only accidentally
  // one-to-one.
  auto joins_beyond_key = [&](std::uint16_t source,
                              const VertexType& vt) {
    for (const auto& jc : join_conjuncts) {
      for (const Slot& slot : {jc.left, jc.right}) {
        if (slot.source != source) continue;
        const auto& keys = vt.key_columns();
        if (std::find(keys.begin(), keys.end(), slot.column) == keys.end()) {
          return true;
        }
      }
    }
    return false;
  };
  const bool collapse = !src_vt.one_to_one() || !dst_vt.one_to_one() ||
                        joins_beyond_key(0, src_vt) ||
                        joins_beyond_key(1, dst_vt);
  const bool keep_attrs = decl.assoc_tables.size() == 1 && !collapse;

  ChunkedArray<VertexIndex> src_out;
  ChunkedArray<VertexIndex> dst_out;
  std::vector<RowIndex> attr_rows;  // rows of the single assoc table
  KeySet seen_pairs(2);             // (source, target) pairs this build added
  KeySet seen_full(n_sources);      // join tuples, when passes can repeat one

  // One join pass runs per occurrence of the ingested table among the
  // sources (one pass for a full build). A single pass extends distinct
  // candidate rows by distinct bucket rows, so its tuples are already
  // distinct; only several passes (the ingested table joined with
  // itself, as in Fig. 3's `subclass`) can find one tuple twice.
  const bool several_passes =
      delta != nullptr &&
      std::count_if(sources.begin(), sources.end(),
                    [&](const JoinSource& src) {
                      return src.table->name() == delta->ingested_table;
                    }) > 1;

  // Delta passes append to the base's edges. Copying its endpoint arrays
  // shares their sealed chunks (vertex numbering is stable across
  // VertexType::extend). A collapsed pair the base already has is found
  // in the base's CSR, so seen_pairs holds only the delta's new pairs.
  // Tuple-identity dedup needs no base either: a new tuple contains at
  // least one row index >= first_new_row, which no base tuple can.
  const EdgeType* base = delta != nullptr ? delta->base : nullptr;
  if (base != nullptr) {
    src_out = base->source_vertices();
    dst_out = base->target_vertices();
  }
  auto base_has_pair = [&](VertexIndex sv, VertexIndex dv) {
    if (base == nullptr) return false;
    const CsrIndex& fwd = base->forward();
    const CsrIndex& rev = base->reverse();
    // A vertex the ingest added has no base edges.
    if (sv >= fwd.num_vertices() || dv >= rev.num_vertices()) return false;
    // Scan the shorter of the two adjacency lists.
    const bool from_src = fwd.degree(sv) <= rev.degree(dv);
    const std::span<const VertexIndex> nbrs =
        from_src ? fwd.neighbors(sv) : rev.neighbors(dv);
    const VertexIndex want = from_src ? dv : sv;
    return std::find(nbrs.begin(), nbrs.end(), want) != nbrs.end();
  };

  // Residual filter + dedup for one join pass; the tuples carry both
  // endpoints' vertices.
  auto process_pass = [&](std::size_t start,
                          const std::vector<RowIndex>& first_row) -> Status {
    GEMS_ASSIGN_OR_RETURN(TupleSet tuples, run_join(start, first_row));
    const bool check_pairs = !tuples.distinct_pairs || several_passes;
    std::array<RowCursor, kMaxSources> cursors{};
    for (std::size_t s = 0; s < n_sources; ++s) {
      cursors[s].table = sources[s].table.get();
    }
    const std::span<const RowCursor> cspan(cursors.data(), n_sources);
    for (std::size_t k = 0; k < tuples.size(); ++k) {
      const auto tuple = tuples.tuple(k);
      for (std::size_t s = 0; s < n_sources; ++s) cursors[s].row = tuple[s];
      bool ok = true;
      for (const auto& pred : residual) {
        if (!relational::eval_predicate(*pred, cspan, pool)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      // Every matching row has a vertex; kInvalidVertex only marks a
      // restored type whose rows and key index disagree.
      const VertexIndex sv = tuple[n_sources];
      const VertexIndex dv = tuple[n_sources + 1];
      if (sv == kInvalidVertex || dv == kInvalidVertex) continue;
      if (collapse) {
        if (base_has_pair(sv, dv)) continue;
        const std::array<std::uint32_t, 2> pair{sv, dv};
        if (check_pairs && !seen_pairs.insert(pair)) continue;
      } else if (several_passes) {
        // One edge per distinct join entry: key on the full tuple.
        if (!seen_full.insert(tuple.first(n_sources))) continue;
      }
      src_out.push_back(sv);
      dst_out.push_back(dv);
      if (keep_attrs) attr_rows.push_back(tuple[2]);
    }
    return Status::ok();
  };

  std::vector<RowIndex> first_row(n_sources, 0);
  if (delta == nullptr) {
    GEMS_RETURN_IF_ERROR(process_pass(0, first_row));
  } else {
    // One pass per occurrence of the ingested table among the join
    // sources, with that occurrence restricted to the newly appended rows.
    // A tuple joining new rows in several occurrences is found by several
    // passes; the dedup sets above collapse it to one edge.
    for (std::size_t o = 0; o < n_sources; ++o) {
      if (sources[o].table->name() != delta->ingested_table) continue;
      first_row[o] = delta->first_new_row;
      GEMS_RETURN_IF_ERROR(process_pass(o, first_row));
      first_row[o] = 0;
    }
  }

  // ---- Edge attribute table ---------------------------------------------
  // One row per edge, in edge order. A delta appends the new edges' rows
  // to a copy of the base's table, which shares its sealed chunks.
  TablePtr attr_table;
  if (keep_attrs) {
    const Table& assoc = *sources[2].table;
    if (base == nullptr) {
      std::vector<ColumnIndex> all_cols(assoc.num_columns());
      for (std::size_t i = 0; i < all_cols.size(); ++i) {
        all_cols[i] = static_cast<ColumnIndex>(i);
      }
      attr_table = relational::materialize(assoc, attr_rows, all_cols,
                                           decl.name + "$attrs");
    } else {
      GEMS_CHECK(base->attr_table_ptr() != nullptr);
      auto extended = std::make_shared<Table>(*base->attr_table_ptr());
      for (std::size_t c = 0; c < assoc.num_columns(); ++c) {
        extended->column_mut(static_cast<ColumnIndex>(c))
            .append_gather(assoc.column(static_cast<ColumnIndex>(c)),
                           attr_rows.data(), attr_rows.size());
      }
      extended->bump_rows(attr_rows.size());
      attr_table = std::move(extended);
    }
  }

  return EdgeType::assemble(id, decl.name, src_id, dst_id,
                            src_vt.num_vertices(), dst_vt.num_vertices(),
                            std::move(src_out), std::move(dst_out),
                            std::move(attr_table));
}

}  // namespace

Status add_edge_type(GraphView& graph, const EdgeDecl& decl,
                     const storage::TableCatalog& tables, StringPool& pool,
                     const ParamMap& params) {
  GEMS_ASSIGN_OR_RETURN(
      EdgeType et, build_edge_type(graph, decl, tables, pool, params,
                                   graph.next_edge_type_id(), nullptr));
  return graph.add_edge_type(std::move(et));
}

Result<EdgeType> extend_edge_type(const GraphView& graph, const EdgeDecl& decl,
                                  const storage::TableCatalog& tables,
                                  StringPool& pool, const ParamMap& params,
                                  const EdgeDelta& delta) {
  GEMS_CHECK(delta.base != nullptr);
  return build_edge_type(graph, decl, tables, pool, params, delta.base->id(),
                         &delta);
}

}  // namespace gems::graph
