// Generated differential test of Eq. 2 edge construction. The oracle is a
// nested-loop join with the Fig. 5 collapse rule, written from
// graph/builder.hpp's contract and nothing else: every tuple of rows that
// passes the endpoints' vertex filters and the whole WHERE clause is a
// join entry; entries are ordered by their rows in attach order; an edge
// type collapses onto distinct (source, target) vertex pairs when an
// endpoint is many-to-one or is joined past its key; a single `from table`
// keeps that table's row as the edge's attributes when nothing collapses.
//
// Seeded random small schemas cover key-joined one-to-one endpoints, a
// composite key listed in another order than the join, a composite key
// drawn from two joined sources (a delta pass that starts at the
// association table), NULL join and key cells, filtered vertex types,
// many-to-one endpoints, an endpoint joined on its key and a non-key
// column, association tables with duplicate rows, a `subclass`-style
// self-join, a four-way join, and edge-level single-source and residual
// conjuncts. add_edge_type over the base and the grown tables,
// and extend_graph_for_ingest from base to grown across the 1024-row chunk
// seal, must equal the oracle: byte for byte (endpoint arrays and
// attribute rows), except that a delta whose ingested table is not the
// edge's first join source only has to equal it as an edge multiset
// (DESIGN.md §5i).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "relational/eval.hpp"
#include "relational/row_key.hpp"
#include "relational_oracle.hpp"

namespace gems::graph {
namespace {

using relational::BinaryOp;
using relational::BoundExpr;
using relational::BoundExprPtr;
using relational::Expr;
using relational::ExprPtr;
using relational::RowCursor;
using relational::Slot;
using storage::ColumnIndex;
using storage::DataType;
using storage::RowIndex;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

ExprPtr col(std::string q, std::string c) {
  return Expr::make_column(std::move(q), std::move(c));
}
ExprPtr lit(std::int64_t v) { return Expr::make_literal(Value::int64(v)); }
ExprPtr bin(BinaryOp op, ExprPtr a, ExprPtr b) {
  return Expr::make_binary(op, std::move(a), std::move(b));
}
ExprPtr eq(ExprPtr a, ExprPtr b) {
  return bin(BinaryOp::kEq, std::move(a), std::move(b));
}
/// Conjunction of `parts` in order.
ExprPtr all_of(std::vector<ExprPtr> parts) {
  ExprPtr out = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    out = bin(BinaryOp::kAnd, std::move(out), std::move(parts[i]));
  }
  return out;
}

// ---- The oracle -------------------------------------------------------------

/// Eq. 1 from its definition: the rows passing the filter, numbered by
/// the first occurrence of each key.
struct OracleVertices {
  TablePtr table;
  std::vector<ColumnIndex> key_cols;
  std::vector<bool> passes;
  std::map<std::string, VertexIndex> ids;
  bool one_to_one = true;

  OracleVertices(const VertexDecl& decl, const storage::TableCatalog& tables,
                 StringPool& pool) {
    table = tables.find(decl.table).value();
    for (const auto& k : decl.key_columns) {
      key_cols.push_back(*table->schema().find(k));
    }
    BoundExprPtr filter;
    if (decl.where) {
      relational::TableScope scope(*table, decl.name);
      filter = relational::bind_predicate(decl.where, scope, {}, pool).value();
    }
    passes.assign(table->num_rows(), true);
    RowCursor cursor{table.get(), 0};
    for (std::size_t r = 0; r < table->num_rows(); ++r) {
      cursor.row = static_cast<RowIndex>(r);
      if (filter) passes[r] = relational::eval_predicate(*filter, {&cursor, 1},
                                                          pool);
      if (!passes[r]) continue;
      const auto next = static_cast<VertexIndex>(ids.size());
      if (!ids.emplace(key(cursor.row), next).second) one_to_one = false;
    }
  }

  std::string key(RowIndex row) const {
    return relational::encode_row_key(*table, row, key_cols);
  }
  VertexIndex vertex(RowIndex row) const { return ids.at(key(row)); }
};

/// Resolves `qualifier.column` over the join sources (qualified only).
class OracleScope final : public relational::Scope {
 public:
  OracleScope(std::vector<std::vector<std::string>> qualifiers,
              std::vector<TablePtr> tables)
      : qualifiers_(std::move(qualifiers)), tables_(std::move(tables)) {}

  Result<Slot> resolve(std::string_view qualifier,
                       std::string_view column) const override {
    for (std::size_t s = 0; s < tables_.size(); ++s) {
      const auto& q = qualifiers_[s];
      if (std::find(q.begin(), q.end(), qualifier) == q.end()) continue;
      const auto c = tables_[s]->schema().find(column);
      if (!c) return not_found("no column " + std::string(column));
      return Slot{static_cast<std::uint16_t>(s), *c,
                  tables_[s]->schema().column(*c).type};
    }
    return not_found("no source " + std::string(qualifier));
  }

 private:
  std::vector<std::vector<std::string>> qualifiers_;
  std::vector<TablePtr> tables_;
};

void sources_of(const BoundExpr& e, std::vector<bool>& out) {
  if (e.kind == BoundExpr::Kind::kColumnRef) out[e.slot.source] = true;
  if (e.lhs) sources_of(*e.lhs, out);
  if (e.rhs) sources_of(*e.rhs, out);
}

bool is_column_equality(const BoundExpr& e) {
  return e.kind == BoundExpr::Kind::kBinary && e.bop == BinaryOp::kEq &&
         e.lhs->kind == BoundExpr::Kind::kColumnRef &&
         e.rhs->kind == BoundExpr::Kind::kColumnRef &&
         e.lhs->slot.source != e.rhs->slot.source;
}

struct OracleEdges {
  std::vector<VertexIndex> src;
  std::vector<VertexIndex> dst;
  bool keeps_attrs = false;
  std::vector<RowIndex> attr_rows;  // rows of the single `from table`
};

OracleEdges oracle_edges(const EdgeDecl& decl,
                         const std::map<std::string, OracleVertices>& vts,
                         const storage::TableCatalog& tables,
                         StringPool& pool) {
  const OracleVertices& sv = vts.at(decl.source.vertex_type);
  const OracleVertices& dv = vts.at(decl.target.vertex_type);
  const bool same = decl.source.vertex_type == decl.target.vertex_type;
  auto quals = [&](const EdgeEndpoint& ep) {
    std::vector<std::string> q;
    if (!ep.alias.empty()) q.push_back(ep.alias);
    if (!same) q.push_back(ep.vertex_type);
    return q;
  };
  std::vector<std::vector<std::string>> qualifiers = {quals(decl.source),
                                                      quals(decl.target)};
  std::vector<TablePtr> srcs = {sv.table, dv.table};
  for (const auto& t : decl.assoc_tables) {
    qualifiers.push_back({t});
    srcs.push_back(tables.find(t).value());
  }
  const std::size_t n = srcs.size();
  OracleScope scope(qualifiers, srcs);

  // Every conjunct, with the sources it reads.
  std::vector<BoundExprPtr> conjuncts;
  std::vector<std::vector<bool>> reads;
  for (const ExprPtr& c : relational::split_conjuncts(decl.where)) {
    conjuncts.push_back(relational::bind_predicate(c, scope, {}, pool).value());
    reads.emplace_back(n, false);
    sources_of(*conjuncts.back(), reads.back());
  }

  // Attach order: source 0, then repeatedly the lowest-numbered source an
  // equality between two columns links to the sources already placed.
  std::vector<std::size_t> order = {0};
  std::vector<bool> placed(n, false);
  placed[0] = true;
  while (order.size() < n) {
    std::size_t next = n;
    for (std::size_t s = 0; s < n && next == n; ++s) {
      if (placed[s]) continue;
      for (const auto& c : conjuncts) {
        if (!is_column_equality(*c)) continue;
        const auto a = c->lhs->slot.source;
        const auto b = c->rhs->slot.source;
        if ((a == s && placed[b]) || (b == s && placed[a])) next = s;
      }
    }
    EXPECT_NE(next, n) << "disconnected join";
    if (next == n) return {};
    order.push_back(next);
    placed[next] = true;
  }

  // Nested loops in attach order; a conjunct is checked at the depth that
  // binds the last of its sources.
  std::vector<RowCursor> cursors(n);
  for (std::size_t s = 0; s < n; ++s) cursors[s].table = srcs[s].get();
  std::vector<std::vector<RowIndex>> tuples;
  std::vector<RowIndex> rows(n);
  std::function<void(std::size_t)> loop = [&](std::size_t depth) {
    if (depth == n) {
      tuples.push_back(rows);
      return;
    }
    const std::size_t s = order[depth];
    for (std::size_t r = 0; r < srcs[s]->num_rows(); ++r) {
      if (s == 0 && !sv.passes[r]) continue;
      if (s == 1 && !dv.passes[r]) continue;
      rows[s] = cursors[s].row = static_cast<RowIndex>(r);
      bool ok = true;
      for (std::size_t c = 0; c < conjuncts.size() && ok; ++c) {
        bool bound_now = reads[c][s];
        for (std::size_t d = depth + 1; d < n; ++d) {
          if (reads[c][order[d]]) bound_now = false;
        }
        if (bound_now) ok = relational::eval_predicate(*conjuncts[c], cursors,
                                                       pool);
      }
      if (ok) loop(depth + 1);
    }
  };
  loop(0);

  // Fig. 5: collapse when an endpoint is many-to-one or joined past its key.
  bool collapse = !sv.one_to_one || !dv.one_to_one;
  for (const auto& c : conjuncts) {
    if (!is_column_equality(*c)) continue;
    for (const Slot& slot : {c->lhs->slot, c->rhs->slot}) {
      if (slot.source > 1) continue;
      const auto& keys = slot.source == 0 ? sv.key_cols : dv.key_cols;
      if (std::find(keys.begin(), keys.end(), slot.column) == keys.end()) {
        collapse = true;
      }
    }
  }
  OracleEdges out;
  out.keeps_attrs = decl.assoc_tables.size() == 1 && !collapse;
  std::vector<std::pair<VertexIndex, VertexIndex>> seen;
  for (const auto& t : tuples) {
    const VertexIndex s = sv.vertex(t[0]);
    const VertexIndex d = dv.vertex(t[1]);
    if (collapse) {
      if (std::find(seen.begin(), seen.end(), std::pair(s, d)) != seen.end()) {
        continue;
      }
      seen.emplace_back(s, d);
    }
    out.src.push_back(s);
    out.dst.push_back(d);
    if (out.keeps_attrs) out.attr_rows.push_back(t[2]);
  }
  return out;
}

// ---- Comparison -------------------------------------------------------------

std::string render_row(const Table& t, RowIndex r) {
  std::string out;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    out += '|' + t.value_at(r, static_cast<ColumnIndex>(c)).to_string();
  }
  return out;
}

/// One string per edge: "source,target|attribute cells".
std::vector<std::string> built_edges(const EdgeType& et) {
  std::vector<std::string> out;
  for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
    std::string s = std::to_string(et.source_vertex(e)) + "," +
                    std::to_string(et.target_vertex(e));
    if (et.attr_table() != nullptr) s += render_row(*et.attr_table(), e);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> oracle_strings(const OracleEdges& o,
                                        const Table* assoc) {
  std::vector<std::string> out;
  for (std::size_t e = 0; e < o.src.size(); ++e) {
    std::string s = std::to_string(o.src[e]) + "," + std::to_string(o.dst[e]);
    if (o.keeps_attrs) s += render_row(*assoc, o.attr_rows[e]);
    out.push_back(std::move(s));
  }
  return out;
}

/// `in_order`: endpoint arrays and attribute rows equal element by
/// element; otherwise equal as multisets of edges.
void expect_matches(const EdgeType& et, const OracleEdges& o,
                    const storage::TableCatalog& tables, const EdgeDecl& decl,
                    bool in_order) {
  SCOPED_TRACE("edge " + decl.name);
  ASSERT_EQ(et.attr_table() != nullptr, o.keeps_attrs);
  const Table* assoc =
      o.keeps_attrs ? tables.find(decl.assoc_tables[0]).value().get()
                    : nullptr;
  std::vector<std::string> got = built_edges(et);
  std::vector<std::string> want = oracle_strings(o, assoc);
  if (in_order) {
    std::vector<VertexIndex> src;
    std::vector<VertexIndex> dst;
    for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
      src.push_back(et.source_vertex(e));
      dst.push_back(et.target_vertex(e));
    }
    EXPECT_EQ(src, o.src);
    EXPECT_EQ(dst, o.dst);
  } else {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  EXPECT_EQ(got, want);
}

// ---- Random schemas ---------------------------------------------------------

/// Knobs drawn per seed.
struct Knobs {
  bool filter_av = false;    // AV where w <> 3
  bool filter_bv = false;    // BV where w <> 0
  int null_ids = 0;          // NULL-keyed rows in A (2: AV many-to-one)
  bool edge_filter = false;  // single-source edge conjuncts
  bool residual = false;     // a two-source non-equality conjunct
};

class Scenario {
 public:
  Scenario(std::uint64_t seed, std::size_t rows_a, std::size_t rows_b,
           std::size_t rows_t)
      : rng_(seed), domain_a_(rows_a + 8), domain_b_(rows_b + 8) {
    knobs_.filter_av = rng_() % 2 == 0;
    knobs_.filter_bv = rng_() % 2 == 0;
    knobs_.null_ids = static_cast<int>(rng_() % 3);
    knobs_.edge_filter = rng_() % 2 == 0;
    knobs_.residual = rng_() % 2 == 0;

    auto a = std::make_shared<Table>(
        "A",
        Schema({{"id", DataType::int64()},
                {"k2", DataType::varchar(4)},
                {"fk", DataType::int64()},
                {"pa", DataType::int64()},
                {"g", DataType::varchar(4)},
                {"w", DataType::int64()}}),
        pool_);
    auto b = std::make_shared<Table>(
        "B",
        Schema({{"id", DataType::int64()},
                {"k2", DataType::varchar(4)},
                {"g", DataType::varchar(4)},
                {"w", DataType::int64()}}),
        pool_);
    auto t = std::make_shared<Table>(
        "T",
        Schema({{"a", DataType::int64()},
                {"b", DataType::int64()},
                {"b2", DataType::varchar(4)},
                {"c", DataType::int64()}}),
        pool_);
    auto u = std::make_shared<Table>(
        "U", Schema({{"t", DataType::int64()}, {"b", DataType::int64()}}),
        pool_);
    append_a(*a, rows_a, true);
    append_b(*b, rows_b);
    append_t(*t, rows_t);
    for (std::size_t r = 0; r < 12; ++r) {
      check_ok(u->append_row(std::vector<Value>{
          maybe_null(Value::int64(static_cast<std::int64_t>(rng_() % 6)), 8),
          maybe_null(Value::int64(random_id(domain_b_)), 8)}));
    }
    for (const auto& table : {a, b, t, u}) check_ok(tables_.add(table));
    declare();
  }

  /// Appends `n` rows to a copy of `table` (fresh keys for A and B) and
  /// registers the copy; returns the first new row.
  RowIndex grow(const std::string& table, std::size_t n) {
    const TablePtr base = tables_.find(table).value();
    auto grown = std::make_shared<Table>(*base);
    if (table == "A") append_a(*grown, n, false);
    if (table == "B") append_b(*grown, n);
    if (table == "T") append_t(*grown, n);
    tables_.add_or_replace(grown);
    return static_cast<RowIndex>(base->num_rows());
  }

  Status build(GraphView& g) {
    for (const auto& d : vertices_) {
      GEMS_RETURN_IF_ERROR(add_vertex_type(g, d, tables_, pool_));
    }
    for (const auto& d : edges_) {
      GEMS_RETURN_IF_ERROR(add_edge_type(g, d, tables_, pool_));
    }
    return Status::ok();
  }

  /// A graph to check and whether its edge order must match the oracle's
  /// (per edge declaration).
  struct Checked {
    const GraphView* graph;
    std::function<bool(const EdgeDecl&)> in_order;
  };

  /// Checks every edge type of each graph against the oracle over the
  /// current tables, computed once.
  void check(const std::vector<Checked>& graphs) {
    std::map<std::string, OracleVertices> vts;
    for (const auto& d : vertices_) {
      vts.emplace(d.name, OracleVertices(d, tables_, pool_));
      for (const Checked& c : graphs) {
        const VertexType& vt =
            c.graph->vertex_type(c.graph->find_vertex_type(d.name).value());
        ASSERT_EQ(vt.num_vertices(), vts.at(d.name).ids.size()) << d.name;
        ASSERT_EQ(vt.one_to_one(), vts.at(d.name).one_to_one) << d.name;
      }
    }
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      const OracleEdges want = oracle_edges(edges_[e], vts, tables_, pool_);
      for (const Checked& c : graphs) {
        expect_matches(c.graph->edge_type(static_cast<EdgeTypeId>(e)), want,
                       tables_, edges_[e], c.in_order(edges_[e]));
      }
    }
  }

  /// Sum of edges over all edge types (to check the data is not trivial).
  static std::size_t total_edges(const GraphView& g) {
    std::size_t n = 0;
    for (std::size_t e = 0; e < g.num_edge_types(); ++e) {
      n += g.edge_type(static_cast<EdgeTypeId>(e)).num_edges();
    }
    return n;
  }

  const std::vector<VertexDecl>& vertices() const { return vertices_; }
  const std::vector<EdgeDecl>& edges() const { return edges_; }
  storage::TableCatalog& tables() { return tables_; }
  StringPool& pool() { return pool_; }

 private:
  static void check_ok(const Status& s) {
    GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  }

  Value maybe_null(Value v, std::uint64_t one_in) {
    return rng_() % one_in == 0 ? Value::null() : std::move(v);
  }
  Value small_string(std::uint64_t n) {
    static const char* kStrings[] = {"x", "y", "z", "q", "r"};
    return Value::varchar(kStrings[rng_() % n]);
  }
  /// An id of a table with `domain` - 8 rows. One in four lands on the
  /// last 8 ids, which dangle until the table grows, so a delta joins old
  /// rows to new ones.
  std::int64_t random_id(std::uint64_t domain) {
    const std::uint64_t live = domain - 8;
    return static_cast<std::int64_t>(rng_() % 4 == 0 ? live + rng_() % 8
                                                     : rng_() % live);
  }

  void append_a(Table& t, std::size_t n, bool base) {
    const auto first = static_cast<std::int64_t>(t.num_rows());
    for (std::size_t r = 0; r < n; ++r) {
      const auto id = first + static_cast<std::int64_t>(r);
      // NULL keys only in the base (rows 1..null_ids), so a delta never
      // collapses AV.
      const bool null_id =
          base && r >= 1 && static_cast<int>(r) <= knobs_.null_ids;
      check_ok(t.append_row(std::vector<Value>{
          null_id ? Value::null() : Value::int64(id), small_string(3),
          maybe_null(Value::int64(random_id(domain_b_)), 6),
          maybe_null(Value::int64(random_id(domain_a_)), 6), small_string(4),
          maybe_null(Value::int64(static_cast<std::int64_t>(rng_() % 6)),
                     7)}));
    }
  }
  void append_b(Table& t, std::size_t n) {
    const auto first = static_cast<std::int64_t>(t.num_rows());
    for (std::size_t r = 0; r < n; ++r) {
      // B's first row has a NULL id: one NULL-keyed vertex, one-to-one.
      const bool null_id = first == 0 && r == 0;
      check_ok(t.append_row(std::vector<Value>{
          null_id ? Value::null()
                  : Value::int64(first + static_cast<std::int64_t>(r)),
          small_string(3), small_string(3),
          maybe_null(Value::int64(static_cast<std::int64_t>(rng_() % 4)),
                     6)}));
    }
  }
  void append_t(Table& t, std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      // Small domains: duplicate rows are common.
      check_ok(t.append_row(std::vector<Value>{
          maybe_null(Value::int64(random_id(domain_a_)), 9),
          maybe_null(Value::int64(random_id(domain_b_)), 9), small_string(3),
          maybe_null(Value::int64(static_cast<std::int64_t>(rng_() % 6)),
                     8)}));
    }
  }

  void declare() {
    auto w_filter = [](const char* v, std::int64_t k) {
      return bin(BinaryOp::kNe, col(v, "w"), lit(k));
    };
    vertices_ = {
        {"AV", {"id"}, "A", knobs_.filter_av ? w_filter("AV", 3) : nullptr},
        {"BV", {"id"}, "B", knobs_.filter_bv ? w_filter("BV", 0) : nullptr},
        {"BV2", {"k2", "id"}, "B", nullptr},
        {"CV", {"g"}, "A", nullptr},
        {"DV", {"g"}, "B", nullptr}};

    std::vector<ExprPtr> direct;
    direct.push_back(eq(col("AV", "fk"), col("BV", "id")));
    if (knobs_.edge_filter) {
      direct.push_back(bin(BinaryOp::kGt, col("BV", "w"), lit(1)));
    }
    std::vector<ExprPtr> assoc;
    assoc.push_back(eq(col("T", "a"), col("AV", "id")));
    assoc.push_back(eq(col("T", "b"), col("BV", "id")));
    if (knobs_.edge_filter) {
      assoc.push_back(bin(BinaryOp::kNe, col("T", "c"), lit(2)));
    }
    if (knobs_.residual) {
      assoc.push_back(bin(BinaryOp::kLe, col("T", "c"), col("AV", "w")));
    }
    edges_.clear();
    edges_.push_back({"direct", {"AV", ""}, {"BV", ""}, {},
                      all_of(std::move(direct))});
    edges_.push_back({"assoc", {"AV", ""}, {"BV", ""}, {"T"},
                      all_of(std::move(assoc))});
    // BV2's key is (k2, id); the join names id first.
    edges_.push_back(
        {"composite", {"AV", ""}, {"BV2", ""}, {"T"},
         all_of({eq(col("T", "a"), col("AV", "id")),
                 eq(col("T", "b"), col("BV2", "id")),
                 eq(col("T", "b2"), col("BV2", "k2"))})});
    // A pass starting at T probes BV2 with cells from T and from AV.
    edges_.push_back(
        {"split", {"AV", ""}, {"BV2", ""}, {"T"},
         all_of({eq(col("T", "a"), col("AV", "id")),
                 eq(col("T", "b"), col("BV2", "id")),
                 eq(col("AV", "k2"), col("BV2", "k2"))})});
    // BV is linked by its key and a non-key column: it must be hashed on
    // both, not probed by its key alone.
    edges_.push_back(
        {"pastKey", {"AV", ""}, {"BV", ""}, {"T"},
         all_of({eq(col("T", "a"), col("AV", "id")),
                 eq(col("T", "b"), col("BV", "id")),
                 eq(col("T", "c"), col("BV", "w"))})});
    edges_.push_back({"subclass", {"AV", "X"}, {"AV", "Y"}, {},
                      eq(col("X", "pa"), col("Y", "id"))});
    edges_.push_back({"manyToOne", {"CV", ""}, {"BV", ""}, {"T"},
                      all_of({eq(col("T", "a"), col("CV", "id")),
                              eq(col("T", "b"), col("BV", "id"))})});
    edges_.push_back(
        {"export", {"CV", "P"}, {"DV", "V"}, {"T", "U"},
         all_of({eq(col("T", "a"), col("P", "id")),
                 eq(col("U", "t"), col("T", "c")),
                 eq(col("U", "b"), col("V", "id"))})});
  }

  Xoshiro256 rng_;
  Knobs knobs_;
  std::uint64_t domain_a_;
  std::uint64_t domain_b_;
  StringPool pool_;
  storage::TableCatalog tables_;
  std::vector<VertexDecl> vertices_;
  std::vector<EdgeDecl> edges_;
};

bool always_in_order(const EdgeDecl&) { return true; }

TEST(EdgeOracleTest, FullBuildsMatchNestedLoopJoin) {
  std::size_t edges = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario sc(seed, 40, 36, 50);
    GraphView g;
    const Status st = sc.build(g);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    sc.check({{&g, always_in_order}});
    edges += Scenario::total_edges(g);
  }
  EXPECT_GT(edges, 24u * 50u);
}

TEST(EdgeOracleTest, DeltasAcrossChunkSealMatchNestedLoopJoin) {
  // The ingested table grows from just under 1024 rows past the seal; the
  // other tables stay small, so the nested loops stay cheap.
  struct Case {
    const char* table;
    std::size_t rows_a, rows_b, rows_t;
  };
  const Case cases[] = {{"A", 1000, 36, 50},
                        {"B", 40, 1000, 50},
                        {"T", 40, 36, 1000}};
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string("ingest ") + c.table + " seed " +
                   std::to_string(seed));
      Scenario sc(100 + seed, c.rows_a, c.rows_b, c.rows_t);
      GraphView g;
      Status st = sc.build(g);
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      sc.check({{&g, always_in_order}});

      const RowIndex first_new = sc.grow(c.table, 60 + 20 * seed);
      auto applied = extend_graph_for_ingest(
          g, c.table, first_new, sc.vertices(), sc.edges(), sc.tables(),
          sc.pool());
      ASSERT_TRUE(applied.is_ok()) << applied.status().to_string();
      ASSERT_TRUE(*applied) << "delta fell back to a rebuild";
      // Byte order holds when the ingested table is only the edge's
      // first join source.
      const std::string ingested = c.table;
      auto first_source_only = [&](const EdgeDecl& d) {
        auto table_of = [&](const std::string& vtx) {
          for (const auto& v : sc.vertices()) {
            if (v.name == vtx) return v.table;
          }
          return std::string();
        };
        if (table_of(d.source.vertex_type) != ingested) return false;
        if (table_of(d.target.vertex_type) == ingested) return false;
        return std::find(d.assoc_tables.begin(), d.assoc_tables.end(),
                         ingested) == d.assoc_tables.end();
      };
      GraphView rebuilt;
      st = sc.build(rebuilt);
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      sc.check({{&g, first_source_only}, {&rebuilt, always_in_order}});
    }
  }
}

// A double association-table key holding NULL, -0.0 and +0.0, hashed on
// both sides of the attach: T is bucketed by T.a (PV to QV) and by T.b
// (QV to PV, which then probes PV's key index with T.a's cells). A NULL
// key attaches nothing, even to PV's NULL-keyed vertex, and -0.0 joins
// +0.0.
TEST(EdgeOracleTest, NullAndSignedZeroAssociationKeysMatchNestedLoopJoin) {
  StringPool pool;
  storage::TableCatalog tables;
  auto p = std::make_shared<Table>("P", Schema({{"x", DataType::float64()}}),
                                   pool);
  for (const Value& x : {Value::float64(0.0), Value::float64(1.5),
                         Value::null(), Value::float64(-2.0)}) {
    ASSERT_TRUE(p->append_row(std::vector<Value>{x}).is_ok());
  }
  auto q = std::make_shared<Table>("Q", Schema({{"id", DataType::int64()}}),
                                   pool);
  for (std::int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(q->append_row(std::vector<Value>{Value::int64(id)}).is_ok());
  }
  auto t = std::make_shared<Table>(
      "T", Schema({{"a", DataType::float64()}, {"b", DataType::int64()}}),
      pool);
  const std::vector<std::pair<Value, std::int64_t>> t_rows{
      {Value::float64(-0.0), 0}, {Value::null(), 1},
      {Value::float64(0.0), 2},  {Value::float64(1.5), 1},
      {Value::null(), 0},        {Value::float64(-0.0), 1},
      {Value::float64(3.0), 0}};
  for (const auto& [a, b] : t_rows) {
    ASSERT_TRUE(
        t->append_row(std::vector<Value>{a, Value::int64(b)}).is_ok());
  }
  for (const auto& table : {p, q, t}) ASSERT_TRUE(tables.add(table).is_ok());

  const std::vector<VertexDecl> vertices{{"PV", {"x"}, "P", nullptr},
                                         {"QV", {"id"}, "Q", nullptr}};
  std::vector<EdgeDecl> edges;
  edges.push_back({"pq", {"PV", ""}, {"QV", ""}, {"T"},
                   all_of({eq(col("T", "a"), col("PV", "x")),
                           eq(col("T", "b"), col("QV", "id"))})});
  edges.push_back({"qp", {"QV", ""}, {"PV", ""}, {"T"},
                   all_of({eq(col("T", "b"), col("QV", "id")),
                           eq(col("T", "a"), col("PV", "x"))})});
  GraphView g;
  std::map<std::string, OracleVertices> vts;
  for (const auto& d : vertices) {
    ASSERT_TRUE(add_vertex_type(g, d, tables, pool).is_ok());
    vts.emplace(d.name, OracleVertices(d, tables, pool));
  }
  for (const auto& d : edges) {
    ASSERT_TRUE(add_edge_type(g, d, tables, pool).is_ok());
  }
  // T rows 0, 2 and 5 join PV's +0.0 vertex, row 3 its 1.5 vertex.
  const EdgeType& pq = g.edge_type(0);
  ASSERT_EQ(pq.num_edges(), 4u);
  EXPECT_EQ(pq.source_vertex(0), 0u);
  EXPECT_EQ(pq.target_vertex(0), 0u);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    expect_matches(g.edge_type(static_cast<EdgeTypeId>(e)),
                   oracle_edges(edges[e], vts, tables, pool), tables,
                   edges[e], /*in_order=*/true);
  }
}

}  // namespace
}  // namespace gems::graph
