#include "graph/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <future>
#include <memory_resource>
#include <numeric>
#include <optional>
#include <ranges>
#include <span>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/id_table.hpp"
#include "common/large_array.hpp"
#include "common/scratch_arena.hpp"
#include "relational/batch.hpp"
#include "relational/eval.hpp"
#include "relational/operators.hpp"
#include "relational/row_key.hpp"

namespace gems::graph {

using relational::BoundExpr;
using relational::BoundExprPtr;
using relational::ExprPtr;
using relational::RowCursor;
using relational::Slot;
using storage::ColumnIndex;
using storage::RowIndex;
using storage::Table;
using storage::TablePtr;

namespace {

/// A vertex declaration bound for building: its source table and its
/// binding.
struct BoundVertexDecl : VertexDeclBinding {
  const VertexDecl* decl = nullptr;
  TablePtr source;
};

Result<BoundVertexDecl> bind_vertex_decl(const VertexDecl& decl,
                                         const storage::TableCatalog& tables,
                                         StringPool& pool) {
  BoundVertexDecl bound;
  bound.decl = &decl;
  GEMS_ASSIGN_OR_RETURN(bound.source, tables.find(decl.table));
  GEMS_ASSIGN_OR_RETURN(
      static_cast<VertexDeclBinding&>(bound),
      bind_vertex_decl(decl, bound.source->schema(), pool));
  return bound;
}

Result<VertexType> build_vertex_type(const BoundVertexDecl& bound,
                                     VertexTypeId id,
                                     std::pmr::memory_resource* scratch) {
  return VertexType::build(id, bound.decl->name, bound.source, bound.key_cols,
                           bound.filter.get(), scratch);
}

constexpr std::size_t kMaxSources = 8;

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

/// The AND of `parts` (null when empty) as a balanced tree, so its depth
/// is logarithmic however many conjuncts a declaration has. The left half
/// takes the middle part, so up to three parts fold left-deep:
/// ((a and b) and c).
BoundExprPtr conjoin_balanced(std::span<BoundExprPtr> parts) {
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return std::move(parts.front());
  const std::size_t half = (parts.size() + 1) / 2;
  return conjoin(conjoin_balanced(parts.first(half)),
                 conjoin_balanced(parts.subspan(half)));
}

/// A join source's candidate rows, ascending, and for an endpoint each
/// row's vertex (parallel to `rows`; empty for an association table).
struct Candidates {
  explicit Candidates(std::pmr::memory_resource* scratch)
      : rows(scratch), vertices(scratch) {}
  std::pmr::vector<RowIndex> rows;
  std::pmr::vector<VertexIndex> vertices;
};

/// The build side of a hashed attach: candidate indices grouped by key,
/// laid out CSR-style, each group ascending (the candidates' order). A
/// group whose key has a NULL cell has no members: SQL `=` never matches
/// NULL.
class KeyBuckets {
 public:
  KeyBuckets(const Table& table, std::vector<ColumnIndex> cols,
             std::span<const RowIndex> rows,
             std::pmr::memory_resource* scratch)
      : table_(table),
        cols_(std::move(cols)),
        index_(scratch),  // so the move below takes group_rows' slots
        first_rows_(scratch),
        offsets_(scratch),
        members_(scratch) {
    std::pmr::vector<std::uint32_t> group_of(rows.size(), scratch);
    index_ = relational::group_rows(table_, rows.data(), rows.size(), cols_,
                                    group_of.data(), first_rows_, scratch);
    offsets_.assign(first_rows_.size() + 1, 0);
    for (const std::uint32_t g : group_of) ++offsets_[g + 1];
    // A NULL key's group is left empty.
    for (std::size_t g = 0; g < first_rows_.size(); ++g) {
      for (const ColumnIndex c : cols_) {
        if (table_.column(c).is_null(first_rows_[g])) offsets_[g + 1] = 0;
      }
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    members_.resize(offsets_.back());
    std::pmr::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1,
                                         scratch);
    for (std::size_t i = 0; i < group_of.size(); ++i) {
      const std::uint32_t g = group_of[i];
      if (offsets_[g] != offsets_[g + 1]) {
        members_[fill[g]++] = static_cast<std::uint32_t>(i);
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
  IdTable index_;                            // key -> group
  std::pmr::vector<RowIndex> first_rows_;    // per group: its first row
  std::pmr::vector<std::uint32_t> offsets_;  // group g: members_[offsets_[g]..)
  std::pmr::vector<std::uint32_t> members_;
};

/// A set of fixed-width keys of 32-bit words: the keys back to back, and
/// an IdTable from key hash to key number.
class KeySet {
 public:
  KeySet(std::size_t width, std::pmr::memory_resource* scratch)
      : width_(width), keys_(scratch), index_(scratch) {}

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
  std::pmr::vector<std::uint32_t> keys_;
  IdTable index_;
};

/// An edge declaration bound for building: its join sources' tables, in
/// edge_join_qualifiers' order, and its binding.
struct BoundEdgeDecl : EdgeDeclBinding {
  const EdgeDecl* decl = nullptr;
  std::vector<TablePtr> tables;  // per source

  /// Rows of all join sources: the build's cost, for scheduling.
  std::size_t input_rows() const {
    std::size_t rows = 0;
    for (const TablePtr& t : tables) rows += t->num_rows();
    return rows;
  }
};

/// Binds `decl`; `endpoint_table(name)` resolves an endpoint's vertex
/// type to its source table.
template <typename EndpointTable>
Result<BoundEdgeDecl> bind_edge_decl(const EdgeDecl& decl,
                                     const EndpointTable& endpoint_table,
                                     const storage::TableCatalog& tables,
                                     StringPool& pool) {
  BoundEdgeDecl bound;
  bound.decl = &decl;
  for (const EdgeEndpoint* ep : {&decl.source, &decl.target}) {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, endpoint_table(ep->vertex_type));
    bound.tables.push_back(std::move(t));
  }
  for (const auto& name : decl.assoc_tables) {
    GEMS_ASSIGN_OR_RETURN(TablePtr t, tables.find(name));
    bound.tables.push_back(std::move(t));
  }
  std::vector<const storage::Schema*> schemas;
  for (const TablePtr& t : bound.tables) schemas.push_back(&t->schema());
  GEMS_ASSIGN_OR_RETURN(static_cast<EdgeDeclBinding&>(bound),
                        bind_edge_decl(decl, schemas, pool));
  return bound;
}

/// The Eq. 2 join, shared by the full build (delta == nullptr: one pass
/// over every candidate row) and incremental maintenance (one pass per
/// occurrence of the ingested table, restricted to newly appended rows,
/// appended after the base's edges). Edge ordering is deterministic for a
/// given operation sequence — WAL replay re-runs the identical per-record
/// path, so recovered state is byte-identical to the live build. All
/// transient state comes from `scratch`.
Result<EdgeType> build_edge_type(const GraphView& graph,
                                 const BoundEdgeDecl& bound,
                                 const StringPool& pool, EdgeTypeId id,
                                 const EdgeDelta* delta,
                                 std::pmr::memory_resource* scratch) {
  const EdgeDecl& decl = *bound.decl;
  GEMS_ASSIGN_OR_RETURN(VertexTypeId src_id,
                        graph.find_vertex_type(decl.source.vertex_type));
  GEMS_ASSIGN_OR_RETURN(VertexTypeId dst_id,
                        graph.find_vertex_type(decl.target.vertex_type));
  const VertexType& src_vt = graph.vertex_type(src_id);
  const VertexType& dst_vt = graph.vertex_type(dst_id);
  const std::vector<TablePtr>& tables = bound.tables;
  const std::vector<BoundExprPtr>& filters = bound.filters;
  const std::vector<EdgeDeclBinding::Link>& join_conjuncts = bound.links;
  const std::size_t n_sources = tables.size();
  // The endpoints' vertex types; none for an association table.
  auto vertex_of = [&](std::size_t s) -> const VertexType* {
    return s == 0 ? &src_vt : s == 1 ? &dst_vt : nullptr;
  };

  // ---- Candidate rows, scanned only for the sources a pass reads ------
  // Rows of source s from `first_row` on that pass its vertex filter and
  // its single-source conjuncts, with each endpoint row's vertex. A
  // one-to-one endpoint's candidates are a subset of its ascending
  // representative rows, so one merge walk numbers them, and with identity
  // rows row r is vertex r; a many-to-one endpoint looks each candidate's
  // key up once.
  auto scan_candidates = [&](std::size_t s, RowIndex first_row) {
    Candidates c(scratch);
    const Table& t = *tables[s];
    if (filters[s] != nullptr) {
      c.rows = relational::filter_rows(t, *filters[s], first_row, scratch);
    } else {
      c.rows.resize(t.num_rows() - first_row);
      std::iota(c.rows.begin(), c.rows.end(), first_row);
    }
    const VertexType* vt = vertex_of(s);
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
    const std::size_t n = vt->num_vertices();
    if (vt->identity_rows()) {
      for (const RowIndex r : c.rows) {
        c.vertices.push_back(r < n ? static_cast<VertexIndex>(r)
                                   : kInvalidVertex);
      }
      return c;
    }
    auto rep = [&](std::size_t v) {
      return vt->representative_row(static_cast<VertexIndex>(v));
    };
    std::size_t lo = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, n),
        [&](std::size_t v) { return rep(v) < first_row; });
    for (const RowIndex r : c.rows) {
      while (lo < n && rep(lo) < r) ++lo;
      c.vertices.push_back(lo < n && rep(lo) == r
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
    const VertexType* vt = vertex_of(s);
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

  // ---- Join plan: start at `start`, greedily attach linked sources -----
  // The attach order depends only on the links: each step attaches the
  // lowest-numbered unjoined source that a link ties to the joined set.
  // An attach probes with the joined side's cells of all such links,
  // either into the source's vertex key index or into buckets of its
  // candidates' keys.
  struct Attach {
    std::size_t next = 0;
    std::vector<Slot> probe;             // joined-side cells of the key
    std::vector<relational::KeyCell> cells;  // the key being probed
    const Candidates* candidates = nullptr;  // hashed attach only
    std::optional<KeyBuckets> buckets;       // none: probe the key index
  };
  auto plan_join = [&](std::size_t start) -> Result<std::vector<Attach>> {
    std::vector<Attach> attaches;
    attaches.reserve(n_sources - 1);
    std::vector<bool> joined(n_sources, false);
    joined[start] = true;
    for (std::size_t count = 1; count < n_sources; ++count) {
      std::size_t next = n_sources;
      for (std::size_t s = 0; s < n_sources && next == n_sources; ++s) {
        if (joined[s]) continue;
        for (const auto& jc : join_conjuncts) {
          if ((jc.left.source == s && joined[jc.right.source]) ||
              (jc.right.source == s && joined[jc.left.source])) {
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
      Attach& attach = attaches.emplace_back();
      attach.next = next;
      if (auto order = key_probe_order(next, new_cols)) {
        for (const std::size_t i : *order) {
          attach.probe.push_back(old_slots[i]);
        }
      } else {
        attach.probe = std::move(old_slots);
        attach.candidates = &candidates_of(next);
        attach.buckets.emplace(*tables[next], std::move(new_cols),
                               attach.candidates->rows, scratch);
      }
      attach.cells.resize(attach.probe.size());
      joined[next] = true;
    }
    return attaches;
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

  EndpointArray src_out;
  EndpointArray dst_out;
  // Rows of the single assoc table; (source, target) pairs this build
  // added; join tuples, when passes can repeat one.
  std::pmr::vector<RowIndex> attr_rows(scratch);
  KeySet seen_pairs(2, scratch);
  KeySet seen_full(n_sources, scratch);

  // One join pass runs per occurrence of the ingested table among the
  // sources (one pass for a full build). A single pass extends distinct
  // candidate rows by distinct bucket rows, so its tuples are already
  // distinct; only several passes (the ingested table joined with
  // itself, as in Fig. 3's `subclass`) can find one tuple twice.
  const bool several_passes =
      delta != nullptr &&
      std::count_if(tables.begin(), tables.end(), [&](const TablePtr& t) {
        return t->name() == delta->ingested_table;
      }) > 1;

  // Delta passes collect only the appended edges: EdgeType::extend adds
  // them after the base's (vertex numbering is stable across
  // VertexType::extend). A collapsed pair the base already has is found
  // in the base's CSR, so seen_pairs holds only the delta's new pairs.
  // Tuple-identity dedup needs no base either: a new tuple contains at
  // least one row index >= first_new_row, which no base tuple can.
  const EdgeType* base = delta != nullptr ? delta->base : nullptr;
  auto base_has_pair = [&](VertexIndex sv, VertexIndex dv) {
    if (base == nullptr) return false;
    const CsrIndex& fwd = base->forward();
    const CsrIndex& rev = base->reverse();
    // A vertex the ingest added has no base edges.
    if (sv >= fwd.num_vertices() || dv >= rev.num_vertices()) return false;
    // Scan the shorter of the two adjacency lists.
    const bool from_src = fwd.degree(sv) <= rev.degree(dv);
    const VertexIndex want = from_src ? dv : sv;
    bool found = false;
    (from_src ? fwd : rev)
        .for_each_part(from_src ? sv : dv, [&](const AdjacencyPart& part) {
          for (std::size_t i = 0; !found && i < part.size(); ++i) {
            found = part.neighbor(i) == want;
          }
        });
    return found;
  };

  // One join pass, walked depth first. Tuple t holds one row per join
  // source, then the vertex of source 0 and of source 1 (the endpoints).
  // Complete tuples come out in ascending order of their rows, compared
  // source by source in attach order, as a join that materialized each
  // attach's tuples would list them, and go straight through the residual
  // filter and the dedup. `first_row[s]` restricts source s to its rows
  // from there on: a delta pass restricts its start occurrence to the
  // appended suffix.
  auto process_pass = [&](std::size_t start,
                          const std::vector<RowIndex>& first_row) -> Status {
    GEMS_ASSIGN_OR_RETURN(std::vector<Attach> attaches, plan_join(start));
    // The pairs are distinct when the start is a one-to-one endpoint and
    // every attach probes a key index (at most one match each).
    const bool distinct_pairs =
        start < 2 && vertex_of(start)->one_to_one() &&
        std::none_of(attaches.begin(), attaches.end(),
                     [](const Attach& a) { return a.buckets.has_value(); });
    const bool check_pairs = !distinct_pairs || several_passes;
    std::array<RowCursor, kMaxSources> cursors{};
    for (std::size_t s = 0; s < n_sources; ++s) {
      cursors[s].table = tables[s].get();
    }
    const std::span<const RowCursor> cspan(cursors.data(), n_sources);
    std::array<std::uint32_t, kMaxSources + 2> t{};

    auto emit = [&] {
      for (std::size_t s = 0; s < n_sources; ++s) cursors[s].row = t[s];
      for (const auto& pred : bound.residual) {
        if (!relational::eval_predicate(*pred, cspan, pool)) return;
      }
      // Every matching row has a vertex; kInvalidVertex would mark a type
      // whose rows and key index disagree.
      const VertexIndex sv = t[n_sources];
      const VertexIndex dv = t[n_sources + 1];
      if (sv == kInvalidVertex || dv == kInvalidVertex) return;
      if (collapse) {
        if (base_has_pair(sv, dv)) return;
        const std::array<std::uint32_t, 2> pair{sv, dv};
        if (check_pairs && !seen_pairs.insert(pair)) return;
      } else if (several_passes) {
        // One edge per distinct join entry: key on the full tuple.
        if (!seen_full.insert({t.data(), n_sources})) return;
      }
      src_out.push_back(sv);
      dst_out.push_back(dv);
      if (keep_attrs) attr_rows.push_back(t[2]);
    };

    // Attaches attaches[k..] to the joined rows in t. A probe key with a
    // NULL cell matches nothing (SQL `=` never matches NULL, but the key
    // index may hold a NULL-keyed vertex).
    auto walk = [&](auto& self, std::size_t k) -> void {
      if (k == attaches.size()) return emit();
      Attach& a = attaches[k];
      for (std::size_t i = 0; i < a.probe.size(); ++i) {
        const Slot& slot = a.probe[i];
        const storage::Column& column =
            tables[slot.source]->column(slot.column);
        const RowIndex row = t[slot.source];
        if (column.is_null(row)) return;
        a.cells[i] = {&column, row};
      }
      if (!a.buckets) {
        // Key-probe attach: a hit is the vertex, and its one row is the
        // representative row.
        const VertexType& vt = *vertex_of(a.next);
        const VertexIndex v = vt.find_by_cells(a.cells);
        if (v == kInvalidVertex) return;
        const RowIndex row = vt.representative_row(v);
        if (row < first_row[a.next]) return;  // outside this pass's rows
        t[a.next] = row;
        t[n_sources + a.next] = v;
        return self(self, k + 1);
      }
      for (const std::uint32_t i : a.buckets->find(a.cells)) {
        t[a.next] = a.candidates->rows[i];
        if (a.next < 2) t[n_sources + a.next] = a.candidates->vertices[i];
        self(self, k + 1);
      }
    };

    const Candidates cand = scan_candidates(start, first_row[start]);
    for (std::size_t i = 0; i < cand.rows.size(); ++i) {
      t[start] = cand.rows[i];
      if (start < 2) t[n_sources + start] = cand.vertices[i];
      walk(walk, 0);
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
      if (tables[o]->name() != delta->ingested_table) continue;
      first_row[o] = delta->first_new_row;
      GEMS_RETURN_IF_ERROR(process_pass(o, first_row));
      first_row[o] = 0;
    }
  }
  // The attached sources' candidates are dead once the join is done: give
  // them back before the attribute table and the CSR are built.
  full_candidates.clear();

  // ---- Edge attribute table ---------------------------------------------
  // One row per edge, in edge order. A delta appends the new edges' rows
  // to a copy of the base's table, which shares its sealed chunks.
  TablePtr attr_table;
  if (keep_attrs) {
    const Table& assoc = *tables[2];
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
    // Copied into the table: give the rows back before the CSR build.
    std::pmr::vector<RowIndex>(scratch).swap(attr_rows);
  }

  if (base != nullptr) {
    return EdgeType::extend(*base, src_vt.num_vertices(),
                            dst_vt.num_vertices(), src_out, dst_out,
                            std::move(attr_table), scratch);
  }
  return EdgeType::assemble(id, decl.name, src_id, dst_id,
                            src_vt.num_vertices(), dst_vt.num_vertices(),
                            std::move(src_out), std::move(dst_out),
                            std::move(attr_table), scratch);
}

/// An endpoint resolver for bind_edge_decl over the vertex types of
/// `graph`.
auto endpoints_of(const GraphView& graph) {
  return [&graph](const std::string& name) -> Result<TablePtr> {
    GEMS_ASSIGN_OR_RETURN(VertexTypeId id, graph.find_vertex_type(name));
    return graph.vertex_type(id).source_ptr();
  };
}

/// Runs build(i, scratch) for every i in [0, n), largest cost(i) first, on
/// `workers`, or on the calling thread without them, and returns the
/// results by index. Each build draws from an arena of its own that is
/// unmapped as soon as that type is built, so the rebuild's peak is the
/// built graph plus the scratch of the types building at that moment.
template <typename T, typename Cost, typename Build>
std::vector<std::optional<Result<T>>> build_all(std::size_t n, Cost cost,
                                                Build build,
                                                ThreadPool* workers) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return cost(a) > cost(b);
  });
  std::vector<std::optional<Result<T>>> out(n);
  const auto run = [&](std::size_t i) {
    ScratchArena scratch;
    out[i].emplace(build(i, &scratch));
  };
  if (workers == nullptr) {
    for (const std::size_t i : order) run(i);
    return out;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (const std::size_t i : order) {
    futures.push_back(workers->submit([&run, i] { run(i); }));
  }
  // Every task references this frame: wait for all before one may throw.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
  return out;
}

}  // namespace

Result<VertexDeclBinding> bind_vertex_decl(const VertexDecl& decl,
                                           const storage::Schema& source,
                                           StringPool& pool) {
  VertexDeclBinding bound;
  bound.key_cols.reserve(decl.key_columns.size());
  for (const auto& k : decl.key_columns) {
    auto col = source.find(k);
    if (!col) {
      return not_found("vertex '" + decl.name + "': table '" + decl.table +
                       "' has no column '" + k + "'");
    }
    bound.key_cols.push_back(*col);
  }
  if (decl.where) {
    const relational::TableScope scope(source, decl.table, decl.name);
    GEMS_ASSIGN_OR_RETURN(
        bound.filter,
        relational::bind_predicate(decl.where, scope, {}, pool));
  }
  return bound;
}

Result<std::vector<std::vector<std::string>>> edge_join_qualifiers(
    const EdgeDecl& decl) {
  if (!decl.where) {
    return invalid_argument("edge '" + decl.name +
                            "' requires a where clause");
  }
  const bool same_endpoint_type =
      decl.source.vertex_type == decl.target.vertex_type;
  if (same_endpoint_type &&
      (decl.source.alias.empty() || decl.target.alias.empty())) {
    return invalid_argument("edge '" + decl.name +
                            "': endpoints of the same vertex type need "
                            "'as' aliases");
  }
  if (2 + decl.assoc_tables.size() > kMaxSources) {
    return invalid_argument("edge '" + decl.name + "' joins too many tables");
  }
  std::vector<std::vector<std::string>> quals;
  for (const EdgeEndpoint* ep : {&decl.source, &decl.target}) {
    std::vector<std::string>& q = quals.emplace_back();
    if (!ep->alias.empty()) q.push_back(ep->alias);
    // The bare type name addresses an endpoint only when unambiguous
    // (Fig. 2's subclass edge uses `TypeVtx as A, TypeVtx as B`).
    if (!same_endpoint_type) q.push_back(ep->vertex_type);
  }
  for (const auto& name : decl.assoc_tables) quals.push_back({name});
  return quals;
}

Result<EdgeDeclBinding> bind_edge_decl(
    const EdgeDecl& decl, std::span<const storage::Schema* const> sources,
    StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(const auto quals, edge_join_qualifiers(decl));
  GEMS_CHECK(sources.size() == quals.size());
  EdgeDeclBinding bound;
  const relational::MultiSourceScope scope(quals, sources);
  std::vector<std::vector<BoundExprPtr>> single(sources.size());
  for (const ExprPtr& conjunct : relational::split_conjuncts(decl.where)) {
    GEMS_ASSIGN_OR_RETURN(
        BoundExprPtr e,
        relational::bind_predicate(conjunct, scope, {}, pool));
    const std::uint32_t referenced = referenced_sources(*e);
    if (std::popcount(referenced) <= 1) {
      const int s = referenced == 0 ? 0 : std::countr_zero(referenced);
      rebase_to_source0(*e);
      single[static_cast<std::size_t>(s)].push_back(std::move(e));
      continue;
    }
    // column = column across exactly two sources -> equi-join link.
    if (std::popcount(referenced) == 2 &&
        e->kind == BoundExpr::Kind::kBinary &&
        e->bop == relational::BinaryOp::kEq &&
        e->lhs->kind == BoundExpr::Kind::kColumnRef &&
        e->rhs->kind == BoundExpr::Kind::kColumnRef) {
      if (e->lhs->slot.type.kind != e->rhs->slot.type.kind) {
        return type_error("edge '" + decl.name + "': join condition '" +
                          conjunct->to_string() +
                          "' compares different types");
      }
      bound.links.push_back({e->lhs->slot, e->rhs->slot});
      continue;
    }
    bound.residual.push_back(std::move(e));
  }
  for (std::vector<BoundExprPtr>& parts : single) {
    bound.filters.push_back(conjoin_balanced(parts));
  }
  return bound;
}

Status add_vertex_type(GraphView& graph, const VertexDecl& decl,
                       const storage::TableCatalog& tables, StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(BoundVertexDecl bound,
                        bind_vertex_decl(decl, tables, pool));
  GEMS_ASSIGN_OR_RETURN(
      VertexType vt, build_vertex_type(bound, graph.next_vertex_type_id(),
                                       large_array_resource()));
  return graph.add_vertex_type(std::move(vt));
}

Status add_edge_type(GraphView& graph, const EdgeDecl& decl,
                     const storage::TableCatalog& tables, StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(BoundEdgeDecl bound,
                        bind_edge_decl(decl, endpoints_of(graph), tables, pool));
  GEMS_ASSIGN_OR_RETURN(EdgeType et,
                        build_edge_type(graph, bound, pool,
                                        graph.next_edge_type_id(), nullptr,
                                        large_array_resource()));
  return graph.add_edge_type(std::move(et));
}

Result<GraphView> build_graph(std::span<const VertexDecl> vertex_decls,
                              std::span<const EdgeDecl> edge_decls,
                              const storage::TableCatalog& tables,
                              StringPool& pool, ThreadPool* workers) {
  // ---- Bind, in declaration order ---------------------------------------
  // Binding stops at the first failure: a later declaration's status can
  // never be the one returned.
  Status bind_failure;
  std::vector<BoundVertexDecl> vertices;
  for (const VertexDecl& decl : vertex_decls) {
    auto bound = bind_vertex_decl(decl, tables, pool);
    if (!bound.is_ok()) {
      bind_failure = bound.status();
      break;
    }
    vertices.push_back(std::move(bound).value());
  }
  std::vector<BoundEdgeDecl> edges;
  if (bind_failure.is_ok()) {
    // Endpoints resolve to the tables the vertex types will be built from.
    const auto endpoint_table =
        [&](const std::string& name) -> Result<TablePtr> {
      for (const BoundVertexDecl& v : vertices) {
        if (v.decl->name == name) return v.source;
      }
      return not_found("no vertex type named '" + name + "'");
    };
    for (const EdgeDecl& decl : edge_decls) {
      auto bound = bind_edge_decl(decl, endpoint_table, tables, pool);
      if (!bound.is_ok()) {
        bind_failure = bound.status();
        break;
      }
      edges.push_back(std::move(bound).value());
    }
  }

  // ---- Build concurrently, register in declaration order ----------------
  GraphView graph;
  auto vertex_types = build_all<VertexType>(
      vertices.size(),
      [&](std::size_t i) { return vertices[i].source->num_rows(); },
      [&](std::size_t i, ScratchArena* scratch) {
        return build_vertex_type(vertices[i], static_cast<VertexTypeId>(i),
                                 scratch);
      },
      workers);
  for (auto& vt : vertex_types) {
    GEMS_RETURN_IF_ERROR(vt->status());
    GEMS_RETURN_IF_ERROR(graph.add_vertex_type(std::move(*vt).value()));
  }
  if (vertices.size() < vertex_decls.size()) return bind_failure;

  auto edge_types = build_all<EdgeType>(
      edges.size(), [&](std::size_t i) { return edges[i].input_rows(); },
      [&](std::size_t i, ScratchArena* scratch) {
        return build_edge_type(graph, edges[i], pool,
                               static_cast<EdgeTypeId>(i), nullptr, scratch);
      },
      workers);
  for (auto& et : edge_types) {
    GEMS_RETURN_IF_ERROR(et->status());
    GEMS_RETURN_IF_ERROR(graph.add_edge_type(std::move(*et).value()));
  }
  GEMS_RETURN_IF_ERROR(bind_failure);
  return graph;
}

Result<EdgeType> extend_edge_type(const GraphView& graph, const EdgeDecl& decl,
                                  const storage::TableCatalog& tables,
                                  StringPool& pool, const EdgeDelta& delta,
                                  bool* renumbered) {
  GEMS_CHECK(delta.base != nullptr);
  GEMS_ASSIGN_OR_RETURN(BoundEdgeDecl bound,
                        bind_edge_decl(decl, endpoints_of(graph), tables, pool));
  GEMS_ASSIGN_OR_RETURN(EdgeType et,
                        build_edge_type(graph, bound, pool, delta.base->id(),
                                        &delta, large_array_resource()));
  // A build numbers edges in the order of its source endpoint's rows, so
  // appended edges are in that order only when the ingested table is that
  // endpoint's alone. Otherwise new edges belong among the base's.
  const bool appends_in_order =
      bound.tables[0]->name() == delta.ingested_table &&
      std::count_if(bound.tables.begin(), bound.tables.end(),
                    [&](const TablePtr& t) {
                      return t->name() == delta.ingested_table;
                    }) == 1;
  const bool renumber =
      !appends_in_order && et.num_edges() > delta.base->num_edges();
  if (renumbered != nullptr) *renumbered = renumber;
  if (!renumber) return et;
  return build_edge_type(graph, bound, pool, delta.base->id(), nullptr,
                         large_array_resource());
}

}  // namespace gems::graph
