#include "graph/builder.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
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

/// Distinct source indices referenced by a bound expression.
void collect_sources(const BoundExpr& e, std::unordered_set<int>& out) {
  switch (e.kind) {
    case BoundExpr::Kind::kColumnRef:
      out.insert(e.slot.source);
      return;
    case BoundExpr::Kind::kConst:
      return;
    case BoundExpr::Kind::kUnary:
      collect_sources(*e.lhs, out);
      return;
    case BoundExpr::Kind::kBinary:
      collect_sources(*e.lhs, out);
      collect_sources(*e.rhs, out);
      return;
  }
}

struct JoinConjunct {
  Slot left;
  Slot right;
};

/// Flat tuple store: tuple t occupies row_of[t*width .. t*width+width).
struct TupleSet {
  std::size_t width = 0;
  std::vector<RowIndex> rows;

  std::size_t size() const { return width == 0 ? 0 : rows.size() / width; }
  std::span<const RowIndex> tuple(std::size_t t) const {
    return {rows.data() + t * width, width};
  }
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
  MultiSourceScope scope(sources);
  std::vector<std::vector<BoundExprPtr>> per_source(n_sources);
  std::vector<JoinConjunct> join_conjuncts;
  std::vector<BoundExprPtr> residual;

  for (const ExprPtr& conjunct : relational::split_conjuncts(decl.where)) {
    GEMS_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        relational::bind_predicate(conjunct, scope, params, pool));
    std::unordered_set<int> referenced;
    collect_sources(*bound, referenced);
    if (referenced.size() <= 1) {
      const int s = referenced.empty() ? 0 : *referenced.begin();
      per_source[static_cast<std::size_t>(s)].push_back(std::move(bound));
      continue;
    }
    // column = column across exactly two sources -> equi-join conjunct.
    if (referenced.size() == 2 && bound->kind == BoundExpr::Kind::kBinary &&
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

  // ---- Candidate rows per source (vertex filter + per-source conjuncts)
  std::vector<std::vector<RowIndex>> candidates(n_sources);
  for (std::size_t s = 0; s < n_sources; ++s) {
    const Table& t = *sources[s].table;
    std::array<RowCursor, kMaxSources> cursors{};
    cursors[s].table = &t;
    const std::span<const RowCursor> cspan(cursors.data(), n_sources);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const RowIndex row = static_cast<RowIndex>(r);
      if (sources[s].vertex != nullptr &&
          !sources[s].vertex->matching_rows().test(r)) {
        continue;
      }
      cursors[s].row = row;
      bool ok = true;
      for (const auto& pred : per_source[s]) {
        if (!relational::eval_predicate(*pred, cspan, pool)) {
          ok = false;
          break;
        }
      }
      if (ok) candidates[s].push_back(row);
    }
  }

  // ---- Join: start at `start`, greedily attach connected sources --------
  auto run_join = [&](std::size_t start,
                      const std::vector<std::vector<RowIndex>>& cand)
      -> Result<TupleSet> {
    TupleSet tuples;
    tuples.width = n_sources;
    std::vector<bool> joined(n_sources, false);
    joined[start] = true;
    tuples.rows.reserve(cand[start].size() * n_sources);
    for (const RowIndex r : cand[start]) {
      for (std::size_t i = 0; i < n_sources; ++i) {
        tuples.rows.push_back(i == start ? r : kInvalidVertex);
      }
    }

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

      // Hash the new source's candidate rows by composite key (mix64 via
      // RowKeyHash — the std::string hash skews buckets on interned-id
      // payloads; the encoded key format itself is unchanged).
      const Table& next_table = *sources[next].table;
      std::unordered_map<std::string, std::vector<RowIndex>,
                         relational::RowKeyHash, std::equal_to<>>
          index;
      index.reserve(cand[next].size());
      {
        std::string key;
        for (const RowIndex r : cand[next]) {
          key.clear();
          bool null_key = false;
          for (const ColumnIndex c : new_cols) {
            if (next_table.column(c).is_null(r)) {
              null_key = true;
              break;
            }
            relational::append_key_part(next_table, r, c, key);
          }
          if (!null_key) index[key].push_back(r);
        }
      }

      // Probe with each existing tuple.
      TupleSet next_tuples;
      next_tuples.width = n_sources;
      std::string key;
      for (std::size_t t = 0; t < tuples.size(); ++t) {
        const auto tuple = tuples.tuple(t);
        key.clear();
        bool null_key = false;
        for (const Slot& slot : old_slots) {
          const Table& ot = *sources[slot.source].table;
          const RowIndex orow = tuple[slot.source];
          if (ot.column(slot.column).is_null(orow)) {
            null_key = true;
            break;
          }
          relational::append_key_part(ot, orow, slot.column, key);
        }
        if (null_key) continue;
        auto it = index.find(key);
        if (it == index.end()) continue;
        for (const RowIndex r : it->second) {
          for (std::size_t i = 0; i < n_sources; ++i) {
            next_tuples.rows.push_back(i == next ? r : tuple[i]);
          }
        }
      }
      tuples = std::move(next_tuples);
      joined[next] = true;
      ++joined_count;
    }
    return tuples;
  };

  // ---- Map tuples to endpoint vertices and dedup ------------------------
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
  std::unordered_set<std::uint64_t> seen_pairs;  // pairs this build added
  std::unordered_set<std::string> seen_full;

  // One join pass runs per occurrence of the ingested table among the
  // sources (one pass for a full build). A single pass extends distinct
  // candidate rows by distinct bucket rows, so its tuples are already
  // distinct; only several passes (the ingested table joined with
  // itself, as in Fig. 3's `subclass`) can find one tuple twice.
  const bool dedup_tuples =
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

  // Residual filter + vertex mapping + dedup for one join pass.
  auto process_pass = [&](std::size_t start,
                          const std::vector<std::vector<RowIndex>>& cand)
      -> Status {
    GEMS_ASSIGN_OR_RETURN(TupleSet tuples, run_join(start, cand));
    std::array<RowCursor, kMaxSources> cursors{};
    for (std::size_t s = 0; s < n_sources; ++s) {
      cursors[s].table = sources[s].table.get();
    }
    const std::span<const RowCursor> cspan(cursors.data(), n_sources);
    for (std::size_t t = 0; t < tuples.size(); ++t) {
      const auto tuple = tuples.tuple(t);
      for (std::size_t s = 0; s < n_sources; ++s) cursors[s].row = tuple[s];
      bool ok = true;
      for (const auto& pred : residual) {
        if (!relational::eval_predicate(*pred, cspan, pool)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      const VertexIndex sv = src_vt.find_by_key(*sources[0].table, tuple[0],
                                                src_vt.key_columns());
      const VertexIndex dv = dst_vt.find_by_key(*sources[1].table, tuple[1],
                                                dst_vt.key_columns());
      if (sv == kInvalidVertex || dv == kInvalidVertex) continue;
      if (collapse) {
        if (base_has_pair(sv, dv)) continue;
        const std::uint64_t pair =
            (static_cast<std::uint64_t>(sv) << 32) | dv;
        if (!seen_pairs.insert(pair).second) continue;
      } else if (dedup_tuples) {
        // One edge per distinct join entry: key on the full tuple.
        std::string full;
        for (const RowIndex r : tuple) {
          full.append(reinterpret_cast<const char*>(&r), sizeof(r));
        }
        if (!seen_full.insert(std::move(full)).second) continue;
      }
      src_out.push_back(sv);
      dst_out.push_back(dv);
      if (keep_attrs) attr_rows.push_back(tuple[2]);
    }
    return Status::ok();
  };

  if (delta == nullptr) {
    GEMS_RETURN_IF_ERROR(process_pass(0, candidates));
  } else {
    // One pass per occurrence of the ingested table among the join
    // sources, with that occurrence restricted to the newly appended rows
    // (candidate lists are in ascending row order, so the restriction is a
    // suffix). A tuple joining new rows in several occurrences is found by
    // several passes; the dedup sets above collapse it to one edge.
    for (std::size_t o = 0; o < n_sources; ++o) {
      if (sources[o].table->name() != delta->ingested_table) continue;
      std::vector<RowIndex> all_rows = std::move(candidates[o]);
      candidates[o].assign(std::lower_bound(all_rows.begin(), all_rows.end(),
                                            delta->first_new_row),
                           all_rows.end());
      const Status pass = process_pass(o, candidates);
      candidates[o] = std::move(all_rows);
      GEMS_RETURN_IF_ERROR(pass);
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
