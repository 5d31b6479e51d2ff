// Tests for the graph layer: Eq. 1 vertex views (one-to-one and
// many-to-one), Eq. 2 edge creation (direct joins, `from table` associated
// tables, multi-table joins), the Fig. 5 export-edge scenario, the CSR
// bidirectional edge indices, self-join ingest deltas, the vertex key
// index against an encoded-key oracle, vertex and edge filters against a
// per-row predicate check, and the pooled full rebuild against the serial
// one.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "bsbm/generator.hpp"
#include "common/prng.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph_oracle.hpp"
#include "relational/eval.hpp"
#include "relational/row_key.hpp"
#include "relational_oracle.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"

namespace gems::graph {
namespace {

using relational::BinaryOp;
using relational::Expr;
using relational::ExprPtr;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

/// Every vertex's representative row, read vertex by vertex.
std::vector<storage::RowIndex> rows_of(const VertexType& vt) {
  std::vector<storage::RowIndex> out;
  for (VertexIndex v = 0; v < vt.num_vertices(); ++v) {
    out.push_back(vt.representative_row(v));
  }
  return out;
}

ExprPtr col(std::string q, std::string c) {
  return Expr::make_column(std::move(q), std::move(c));
}
ExprPtr eq(ExprPtr a, ExprPtr b) {
  return Expr::make_binary(BinaryOp::kEq, std::move(a), std::move(b));
}
ExprPtr ne(ExprPtr a, ExprPtr b) {
  return Expr::make_binary(BinaryOp::kNe, std::move(a), std::move(b));
}
ExprPtr land(ExprPtr a, ExprPtr b) {
  return Expr::make_binary(BinaryOp::kAnd, std::move(a), std::move(b));
}

/// Fixture building the Fig. 5 style toy database: producers and vendors
/// with countries, products made by producers, offers sold by vendors.
class GraphTest : public ::testing::Test {
 protected:
  GraphTest() {
    auto make = [&](const char* name, Schema schema, const char* csv) {
      auto t = std::make_shared<Table>(name, std::move(schema), pool_);
      auto r = storage::ingest_csv_text(*t, csv);
      GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
      GEMS_CHECK(tables_.add(t).is_ok());
      return t;
    };
    make("Producers",
         Schema({{"id", DataType::varchar(10)},
                 {"country", DataType::varchar(10)}}),
         "p1,US\np2,IT\np3,FR\np4,US\n");
    make("Vendors",
         Schema({{"id", DataType::varchar(10)},
                 {"country", DataType::varchar(10)}}),
         "v1,CA\nv2,CN\nv3,CA\n");
    make("Products",
         Schema({{"id", DataType::varchar(10)},
                 {"producer", DataType::varchar(10)},
                 {"price", DataType::float64()}}),
         "pr1,p1,10\npr2,p2,20\npr3,p4,30\npr4,p3,5\n");
    make("Offers",
         Schema({{"id", DataType::varchar(10)},
                 {"product", DataType::varchar(10)},
                 {"vendor", DataType::varchar(10)}}),
         "o1,pr1,v1\no2,pr3,v3\no3,pr2,v2\n");
    make("ProductTypes",
         Schema({{"product", DataType::varchar(10)},
                 {"type", DataType::varchar(10)}}),
         "pr1,ta\npr1,tb\npr2,ta\npr4,tc\n");
    make("Types",
         Schema({{"id", DataType::varchar(10)}}),
         "ta\ntb\ntc\n");
  }

  void add_vertex(const char* name, const char* table, const char* key,
                  ExprPtr where = nullptr) {
    VertexDecl d{name, {key}, table, std::move(where)};
    auto s = add_vertex_type(graph_, d, tables_, pool_);
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }

  StringPool pool_;
  storage::TableCatalog tables_;
  GraphView graph_;
};

// ---- Vertex views -----------------------------------------------------------

TEST_F(GraphTest, OneToOneVertexType) {
  add_vertex("ProducerVtx", "Producers", "id");
  const VertexType& vt =
      graph_.vertex_type(graph_.find_vertex_type("ProducerVtx").value());
  EXPECT_EQ(vt.num_vertices(), 4u);
  EXPECT_TRUE(vt.one_to_one());
  EXPECT_EQ(vt.key_string(0), "p1");
  // One-to-one: all source attributes visible.
  EXPECT_TRUE(vt.resolve_attribute("country").is_ok());
}

TEST_F(GraphTest, ManyToOneVertexCollapsesDuplicateKeys) {
  add_vertex("ProducerCountry", "Producers", "country");
  const VertexType& vt =
      graph_.vertex_type(graph_.find_vertex_type("ProducerCountry").value());
  EXPECT_EQ(vt.num_vertices(), 3u);  // US, IT, FR
  EXPECT_FALSE(vt.one_to_one());
  // Non-key attributes are ambiguous on many-to-one vertices.
  EXPECT_TRUE(vt.resolve_attribute("country").is_ok());
  EXPECT_EQ(vt.resolve_attribute("id").status().code(),
            StatusCode::kTypeError);
}

TEST_F(GraphTest, VertexFilterRestrictsInstances) {
  add_vertex("USProducer", "Producers", "id",
             eq(col("", "country"), Expr::make_literal(Value::varchar("US"))));
  const VertexType& vt =
      graph_.vertex_type(graph_.find_vertex_type("USProducer").value());
  EXPECT_EQ(vt.num_vertices(), 2u);  // p1, p4
  EXPECT_EQ(vt.matching_rows().count(), 2u);
}

TEST_F(GraphTest, VertexRequiresExistingKeyColumn) {
  VertexDecl d{"Bad", {"nope"}, "Producers", nullptr};
  EXPECT_EQ(add_vertex_type(graph_, d, tables_, pool_).code(),
            StatusCode::kNotFound);
}

TEST_F(GraphTest, VertexRequiresExistingTable) {
  VertexDecl d{"Bad", {"id"}, "NoTable", nullptr};
  EXPECT_FALSE(add_vertex_type(graph_, d, tables_, pool_).is_ok());
}

TEST_F(GraphTest, DuplicateVertexNameRejected) {
  add_vertex("V", "Producers", "id");
  VertexDecl d{"V", {"id"}, "Vendors", nullptr};
  EXPECT_EQ(add_vertex_type(graph_, d, tables_, pool_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GraphTest, CompositeKeyVertex) {
  VertexDecl d{"PV", {"id", "country"}, "Producers", nullptr};
  ASSERT_TRUE(add_vertex_type(graph_, d, tables_, pool_).is_ok());
  const VertexType& vt = graph_.vertex_type(0);
  EXPECT_EQ(vt.num_vertices(), 4u);
  EXPECT_EQ(vt.key_string(0), "(p1, US)");
}

// ---- Edge creation: direct join (Fig. 3 `producer` edge) -------------------

TEST_F(GraphTest, DirectJoinEdge) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("ProducerVtx", "Producers", "id");
  EdgeDecl d{"producer",
             {"ProductVtx", ""},
             {"ProducerVtx", ""},
             {},
             eq(col("ProductVtx", "producer"), col("ProducerVtx", "id"))};
  auto s = add_edge_type(graph_, d, tables_, pool_);
  ASSERT_TRUE(s.is_ok()) << s.to_string();

  const EdgeType& et =
      graph_.edge_type(graph_.find_edge_type("producer").value());
  EXPECT_EQ(et.num_edges(), 4u);  // every product has a producer
  EXPECT_EQ(et.source_type(), graph_.find_vertex_type("ProductVtx").value());
  EXPECT_EQ(et.target_type(), graph_.find_vertex_type("ProducerVtx").value());
  EXPECT_EQ(et.attr_table(), nullptr);

  // pr3 -> p4: check one concrete edge.
  const VertexType& pv = graph_.vertex_type(et.source_type());
  const VertexType& rv = graph_.vertex_type(et.target_type());
  bool found = false;
  for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
    if (pv.key_string(et.source_vertex(e)) == "pr3") {
      EXPECT_EQ(rv.key_string(et.target_vertex(e)), "p4");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- Edge creation with associated table (Fig. 3 `type` edge) ---------------

TEST_F(GraphTest, AssocTableEdgeOnePerRow) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("TypeVtx", "Types", "id");
  EdgeDecl d{"type",
             {"ProductVtx", ""},
             {"TypeVtx", ""},
             {"ProductTypes"},
             land(eq(col("ProductTypes", "product"), col("ProductVtx", "id")),
                  eq(col("ProductTypes", "type"), col("TypeVtx", "id")))};
  auto s = add_edge_type(graph_, d, tables_, pool_);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  const EdgeType& et = graph_.edge_type(0);
  // Paper: "an edge is created for each table entry satisfying the where".
  EXPECT_EQ(et.num_edges(), 4u);
  // Edge attributes come from the assoc table.
  ASSERT_NE(et.attr_table(), nullptr);
  EXPECT_EQ(et.attr_table()->num_rows(), 4u);
  EXPECT_TRUE(et.resolve_attribute("type").is_ok());
}

TEST_F(GraphTest, EdgeConditionsFilterAssocRows) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("TypeVtx", "Types", "id");
  EdgeDecl d{"type_ta",
             {"ProductVtx", ""},
             {"TypeVtx", ""},
             {"ProductTypes"},
             land(land(eq(col("ProductTypes", "product"),
                          col("ProductVtx", "id")),
                       eq(col("ProductTypes", "type"), col("TypeVtx", "id"))),
                  eq(col("ProductTypes", "type"),
                     Expr::make_literal(Value::varchar("ta"))))};
  ASSERT_TRUE(add_edge_type(graph_, d, tables_, pool_).is_ok());
  EXPECT_EQ(graph_.edge_type(0).num_edges(), 2u);  // pr1-ta, pr2-ta
}

/// A balanced `and` tree of `n` copies of `leaf()`: depth log2(n).
ExprPtr balanced_and(std::size_t n, const std::function<ExprPtr()>& leaf) {
  if (n == 1) return leaf();
  return land(balanced_and((n + 1) / 2, leaf), balanced_and(n / 2, leaf));
}

// A declaration's single-source conjuncts are ANDed into one filter per
// join source. A `where` inside the depth limit can still hold tens of
// thousands of them; folded into a left-deep chain, the filter's compile,
// evaluation and destruction would recurse once per conjunct.
TEST_F(GraphTest, BalancedWhereWithManyConjunctsBuilds) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("ProducerVtx", "Producers", "id");
  const ExprPtr where = land(
      eq(col("ProductVtx", "producer"), col("ProducerVtx", "id")),
      balanced_and(std::size_t{1} << 16, [] {
        return Expr::make_binary(BinaryOp::kGt, col("ProductVtx", "price"),
                                 Expr::make_literal(Value::float64(6)));
      }));
  EdgeDecl d{"made_by", {"ProductVtx", ""}, {"ProducerVtx", ""}, {}, where};
  const Status s = add_edge_type(graph_, d, tables_, pool_);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_EQ(graph_.edge_type(0).num_edges(), 3u);  // every product but pr4
}

// ---- Fig. 4/5: many-to-one endpoints, multi-table join, dedup ---------------

TEST_F(GraphTest, Fig5ExportEdge) {
  add_vertex("ProducerCountry", "Producers", "country");
  add_vertex("VendorCountry", "Vendors", "country");
  // create edge export with vertices (ProducerCountry as P, VendorCountry
  // as V) from table Products, Offers where Products.producer = P.id and
  // Offers.product = Products.id and Offers.vendor = V.id and
  // P.country <> V.country
  EdgeDecl d{"export",
             {"ProducerCountry", "P"},
             {"VendorCountry", "V"},
             {"Products", "Offers"},
             land(land(land(eq(col("Products", "producer"), col("P", "id")),
                            eq(col("Offers", "product"),
                               col("Products", "id"))),
                       eq(col("Offers", "vendor"), col("V", "id"))),
                  ne(col("P", "country"), col("V", "country")))};
  auto s = add_edge_type(graph_, d, tables_, pool_);
  ASSERT_TRUE(s.is_ok()) << s.to_string();

  const EdgeType& et = graph_.edge_type(0);
  // Fig. 5: the multi-way join collapses onto distinct country pairs:
  // US->CA (via pr1/o1 and pr3/o2) and IT->CN (via pr2/o3).
  ASSERT_EQ(et.num_edges(), 2u);
  const VertexType& pc = graph_.vertex_type(et.source_type());
  const VertexType& vc = graph_.vertex_type(et.target_type());
  std::set<std::string> pairs;
  for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
    pairs.insert(pc.key_string(et.source_vertex(e)) + "->" +
                 vc.key_string(et.target_vertex(e)));
  }
  EXPECT_EQ(pairs, (std::set<std::string>{"US->CA", "IT->CN"}));
  // Collapsed edges carry no attribute table.
  EXPECT_EQ(et.attr_table(), nullptr);
}

// ---- Self-edges with aliases (Fig. 3 `subclass`) ------------------------------

TEST_F(GraphTest, SelfEdgeRequiresAliases) {
  add_vertex("ProducerVtx", "Producers", "id");
  EdgeDecl missing{"self",
                   {"ProducerVtx", ""},
                   {"ProducerVtx", ""},
                   {},
                   eq(col("A", "country"), col("B", "country"))};
  EXPECT_EQ(add_edge_type(graph_, missing, tables_, pool_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, SelfEdgeWithAliases) {
  add_vertex("ProducerVtx", "Producers", "id");
  // Producers in the same country (including self-loops).
  EdgeDecl d{"compatriot",
             {"ProducerVtx", "A"},
             {"ProducerVtx", "B"},
             {},
             eq(col("A", "country"), col("B", "country"))};
  auto s = add_edge_type(graph_, d, tables_, pool_);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  // US: p1,p4 -> 4 pairs; IT: 1; FR: 1.
  EXPECT_EQ(graph_.edge_type(0).num_edges(), 6u);
}

// ---- Error paths ----------------------------------------------------------

TEST_F(GraphTest, DisconnectedJoinRejected) {
  add_vertex("ProducerVtx", "Producers", "id");
  add_vertex("VendorVtx", "Vendors", "id");
  EdgeDecl d{"bad",
             {"ProducerVtx", ""},
             {"VendorVtx", ""},
             {},
             eq(col("ProducerVtx", "id"),
                Expr::make_literal(Value::varchar("p1")))};
  EXPECT_EQ(add_edge_type(graph_, d, tables_, pool_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, EdgeToUnknownVertexTypeRejected) {
  add_vertex("ProducerVtx", "Producers", "id");
  EdgeDecl d{"bad",
             {"ProducerVtx", ""},
             {"NopeVtx", ""},
             {},
             eq(col("ProducerVtx", "id"), col("NopeVtx", "id"))};
  EXPECT_EQ(add_edge_type(graph_, d, tables_, pool_).code(),
            StatusCode::kNotFound);
}

TEST_F(GraphTest, JoinConditionTypeMismatchRejected) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("ProducerVtx", "Producers", "id");
  EdgeDecl d{"bad",
             {"ProductVtx", ""},
             {"ProducerVtx", ""},
             {},
             eq(col("ProductVtx", "price"), col("ProducerVtx", "id"))};
  EXPECT_EQ(add_edge_type(graph_, d, tables_, pool_).code(),
            StatusCode::kTypeError);
}

// ---- Edges respect vertex filters --------------------------------------------

TEST_F(GraphTest, EdgesSkipFilteredVertices) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("USProducer", "Producers", "id",
             eq(col("", "country"), Expr::make_literal(Value::varchar("US"))));
  EdgeDecl d{"producer",
             {"ProductVtx", ""},
             {"USProducer", ""},
             {},
             eq(col("ProductVtx", "producer"), col("USProducer", "id"))};
  ASSERT_TRUE(add_edge_type(graph_, d, tables_, pool_).is_ok());
  // Only pr1->p1 and pr3->p4 (p2/p3 producers are filtered out).
  EXPECT_EQ(graph_.edge_type(0).num_edges(), 2u);
}

// ---- CSR indices ---------------------------------------------------------------

TEST_F(GraphTest, CsrForwardReverseConsistency) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("TypeVtx", "Types", "id");
  EdgeDecl d{"type",
             {"ProductVtx", ""},
             {"TypeVtx", ""},
             {"ProductTypes"},
             land(eq(col("ProductTypes", "product"), col("ProductVtx", "id")),
                  eq(col("ProductTypes", "type"), col("TypeVtx", "id")))};
  ASSERT_TRUE(add_edge_type(graph_, d, tables_, pool_).is_ok());
  const EdgeType& et = graph_.edge_type(0);
  const CsrIndex& fwd = et.forward();
  const CsrIndex& rev = et.reverse();
  EXPECT_EQ(fwd.num_edges(), et.num_edges());
  EXPECT_EQ(rev.num_edges(), et.num_edges());

  // Every forward adjacency appears in reverse and vice versa.
  std::multiset<std::pair<VertexIndex, VertexIndex>> via_fwd, via_rev;
  for (VertexIndex v = 0; v < fwd.num_vertices(); ++v) {
    fwd.for_each_part(v, [&](const AdjacencyPart& part) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        via_fwd.emplace(v, part.neighbor(i));
        EXPECT_EQ(et.source_vertex(part.edge(i)), v);
        EXPECT_EQ(et.target_vertex(part.edge(i)), part.neighbor(i));
      }
    });
  }
  for (VertexIndex v = 0; v < rev.num_vertices(); ++v) {
    rev.for_each_part(v, [&](const AdjacencyPart& part) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        via_rev.emplace(part.neighbor(i), v);
      }
    });
  }
  EXPECT_EQ(via_fwd, via_rev);
}

TEST_F(GraphTest, CsrDegrees) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("TypeVtx", "Types", "id");
  EdgeDecl d{"type",
             {"ProductVtx", ""},
             {"TypeVtx", ""},
             {"ProductTypes"},
             land(eq(col("ProductTypes", "product"), col("ProductVtx", "id")),
                  eq(col("ProductTypes", "type"), col("TypeVtx", "id")))};
  ASSERT_TRUE(add_edge_type(graph_, d, tables_, pool_).is_ok());
  const EdgeType& et = graph_.edge_type(0);
  const VertexType& pv = graph_.vertex_type(et.source_type());
  // pr1 has types ta,tb -> out-degree 2; pr3 none -> 0.
  for (VertexIndex v = 0; v < pv.num_vertices(); ++v) {
    const std::string key = pv.key_string(v);
    const auto deg = et.forward().degree(v);
    if (key == "pr1") {
      EXPECT_EQ(deg, 2u);
    }
    if (key == "pr3") {
      EXPECT_EQ(deg, 0u);
    }
  }
}

// ---- CSR base + tail against a flat build ---------------------------------
// Random edge batches appended to random small edge types, with new
// vertices on either side, cross the fold threshold several times. After
// every batch each direction's adjacency, degrees and sizes equal those of
// a flat CsrIndex::build over the whole endpoint arrays, and so do the
// endpoint arrays.

TEST(CsrTailPropertyTest, AppendedBatchesMatchFlatBuild) {
  std::size_t folds = 0;
  std::size_t shared = 0;
  std::size_t ordered_under_tail = 0;  // ordered bases with a tail
  std::size_t form_switches = 0;       // folds of an ordered base into
                                       // a flat one
  std::size_t unit_bases = 0;
  std::size_t unit_under_tail = 0;   // unit bases with a tail
  std::size_t unit_switches = 0;     // folds of a unit base into a
                                     // non-unit one
  std::size_t implicit_bases = 0;         // ordered over identity sources
  std::size_t implicit_under_tail = 0;    // ... with a tail
  std::size_t materialized = 0;  // extends that wrote the sources out
  std::size_t most_parts = 0;
  // Seeds 1-12 append random sources. Seeds 13-20 append non-decreasing
  // ones, so the forward index is ordered, until batch 30 appends a
  // smaller one mid-batch. Seeds 21-26 append unit sources (edge e from
  // vertex e, one new source vertex per edge), until batch 30 gives the
  // newest vertex a second edge (21-23) or skips a vertex (24-26); both
  // keep the sources non-decreasing.
  // Seeds 27-28 are ordered with one vertex of degree above 2 *
  // kChunkRows, so its group spans three chunks. Unit sources are the
  // identity, which the edge type does not store, until the break. Seeds
  // 29-32 are unit too, with non-decreasing targets, so the reverse index
  // is ordered over the identity: its base's neighbors are implicit. At
  // batch 30 the newest vertex gets a second edge (29-30) or a vertex is
  // skipped (31-32), and the sources are written out.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool sorted_dst = seed > 28;
    const bool unit = (seed > 20 && seed <= 26) || sorted_dst;
    const bool ordered = seed > 12 && !unit;
    const bool heavy = seed > 26 && !sorted_dst;
    Xoshiro256 rng(seed);
    std::size_t num_src = unit ? 0 : rng.below(40) + (heavy ? 1 : 0);
    std::size_t num_dst = 1 + rng.below(40);
    EndpointArray src;
    EndpointArray dst;
    VertexIndex last_src = 0;
    VertexIndex last_dst = 0;
    // Unit sources: edge e runs from vertex e + shift. A shift of -1 gives
    // the newest vertex a second edge, one of +1 skips a vertex.
    std::int64_t shift = 0;
    // Appends `n` edges; a fifth of the endpoints are the newest vertex
    // of their side, so new vertices get edges at once.
    auto append = [&](std::size_t n, bool break_order) {
      for (std::size_t i = 0; i < n && (unit || num_src > 0); ++i) {
        if (unit) {
          if (break_order && i == n / 2) {
            shift += seed <= 23 || (sorted_dst && seed <= 30) ? -1 : 1;
          }
          last_src = static_cast<VertexIndex>(
              static_cast<std::int64_t>(src.size()) + shift);
          num_src = std::max<std::size_t>(num_src, last_src + 1);
        } else if (!ordered) {
          last_src = static_cast<VertexIndex>(
              rng.chance(0.2) ? num_src - 1 : rng.below(num_src));
        } else if (break_order && i == n / 2 && last_src > 0) {
          last_src = static_cast<VertexIndex>(rng.below(last_src));
        } else if (last_src + 1 < num_src && rng.chance(0.4)) {
          last_src += 1 + static_cast<VertexIndex>(
                              rng.below(std::min<std::size_t>(
                                  3, num_src - 1 - last_src)));
        }
        src.push_back(last_src);
        if (!sorted_dst) {
          last_dst = static_cast<VertexIndex>(
              rng.chance(0.2) ? num_dst - 1 : rng.below(num_dst));
        } else if (last_dst + 1 < num_dst && rng.chance(0.4)) {
          const std::size_t room = num_dst - 1 - last_dst;
          last_dst += 1 + static_cast<VertexIndex>(
                              rng.below(std::min<std::size_t>(3, room)));
        }
        dst.push_back(last_dst);
      }
    };
    append(rng.below(300), false);
    if (heavy) {
      // One vertex's edges, then its successors'.
      const std::size_t degree = 2 * kChunkRows + 100 + rng.below(500);
      for (std::size_t i = 0; i < degree; ++i) {
        src.push_back(last_src);
        dst.push_back(static_cast<VertexIndex>(rng.below(num_dst)));
      }
    }
    EdgeType et = EdgeType::assemble(0, "E", 0, 1, num_src, num_dst, src,
                                     dst, nullptr,
                                     std::pmr::get_default_resource());
    for (int batch = 0; batch < 60; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      if (!unit) num_src += rng.below(4);
      num_dst += rng.below(3);
      const bool break_order = (ordered || unit) && batch == 30;
      const std::size_t first = src.size();
      append(rng.below(rng.chance(0.1) ? 120 : 12) + (break_order ? 2 : 0),
             break_order);
      EndpointArray added_src;
      EndpointArray added_dst;
      for (std::size_t e = first; e < src.size(); ++e) {
        added_src.push_back(src[e]);
        added_dst.push_back(dst[e]);
      }
      EdgeType next = EdgeType::extend(et, num_src, num_dst, added_src,
                                       added_dst, nullptr,
                                       std::pmr::get_default_resource());
      const EdgeType flat = EdgeType::assemble(
          0, "E", 0, 1, num_src, num_dst, src, dst, nullptr,
          std::pmr::get_default_resource());
      ASSERT_EQ(next.num_edges(), flat.num_edges());
      EXPECT_EQ(next.source_is_identity(), flat.source_is_identity());
      EXPECT_EQ(next.endpoint_bytes(), flat.endpoint_bytes());
      materialized += et.source_is_identity() && !next.source_is_identity();
      for (EdgeIndex e = 0; e < next.num_edges(); ++e) {
        ASSERT_EQ(next.source_vertex(e), src[e]) << "edge " << e;
        ASSERT_EQ(next.target_vertex(e), dst[e]) << "edge " << e;
      }
      for (const bool forward : {true, false}) {
        const CsrIndex& before = forward ? et.forward() : et.reverse();
        const CsrIndex& after = forward ? next.forward() : next.reverse();
        const CsrIndex& rebuilt = forward ? flat.forward() : flat.reverse();
        if (after.shares_base(before)) {
          ++shared;
        } else {
          ++folds;
          EXPECT_EQ(after.tail_edges(), 0u);
          if (before.ordered_base() && !after.ordered_base()) {
            ++form_switches;
          }
          if (before.unit_base() && !after.unit_base()) ++unit_switches;
        }
        if (after.tail_edges() == 0) {
          EXPECT_EQ(after.ordered_base(), rebuilt.ordered_base());
          EXPECT_EQ(after.unit_base(), rebuilt.unit_base());
          EXPECT_EQ(after.implicit_neighbors(),
                    rebuilt.implicit_neighbors());
        } else {
          ordered_under_tail += after.ordered_base();
          unit_under_tail += after.unit_base();
          implicit_under_tail += after.implicit_neighbors();
        }
        unit_bases += after.unit_base();
        implicit_bases += after.implicit_neighbors();
        // Only the reverse index reads the sources.
        EXPECT_TRUE(!after.implicit_neighbors() || !forward);
        // A unit base is ordered.
        EXPECT_TRUE(!after.unit_base() || after.ordered_base());
        // A tail never outgrows the fold fraction of the base.
        EXPECT_LE(after.tail_edges() * kTailFoldDivisor,
                  after.num_edges() - after.tail_edges());
        most_parts =
            std::max(most_parts, expect_same_adjacency(after, rebuilt));
      }
      et = std::move(next);
    }
  }
  // Every outcome occurred many times.
  EXPECT_GT(folds, 24u);
  EXPECT_GT(shared, 24u);
  EXPECT_GT(ordered_under_tail, 24u);
  EXPECT_GE(form_switches, 4u);
  EXPECT_GT(unit_bases, 24u);
  EXPECT_GT(unit_under_tail, 24u);
  EXPECT_GE(unit_switches, 3u);
  EXPECT_GT(implicit_bases, 24u);
  EXPECT_GT(implicit_under_tail, 24u);
  // Seeds 21-26 and 29-32 wrote their sources out at the break (a seed
  // that starts with no edges may too).
  EXPECT_GE(materialized, 10u);
  // The heavy vertex's three chunk pieces, and a tail part at times.
  EXPECT_GE(most_parts, 3u);
}

// ---- CSR forms ------------------------------------------------------------
// Recovery builds each edge type with assemble(), as the graph build does:
// the forms below are the ones a recovered index has.

/// The edge type over edges src[e] -> dst[e] between `num_src` and
/// `num_dst` vertices, as assemble() builds it.
EdgeType assembled(const std::vector<VertexIndex>& src,
                   const std::vector<VertexIndex>& dst, std::size_t num_src,
                   std::size_t num_dst) {
  EndpointArray from;
  from.append(src.data(), src.size());
  EndpointArray to;
  to.append(dst.data(), dst.size());
  return EdgeType::assemble(0, "E", 0, 1, num_src, num_dst, std::move(from),
                            std::move(to), nullptr,
                            std::pmr::get_default_resource());
}

/// Bytes of an endpoint array or representative rows of n < kChunkRows
/// entries, all in the open tail: 4 a row and a validity word per 64 rows.
std::size_t tail_bytes(std::size_t n) {
  return n * sizeof(VertexIndex) + (n + 63) / 64 * sizeof(std::uint64_t);
}

/// `built`'s adjacency, in both directions, is the edge list's: vertex v's
/// entries are its edges in id order, each with the other endpoint.
void expect_adjacency_of_edges(const EdgeType& built,
                               const std::vector<VertexIndex>& src,
                               const std::vector<VertexIndex>& dst) {
  for (const bool forward : {true, false}) {
    SCOPED_TRACE(forward ? "forward" : "reverse");
    const CsrIndex& csr = forward ? built.forward() : built.reverse();
    const std::vector<VertexIndex>& keyed = forward ? src : dst;
    const std::vector<VertexIndex>& other = forward ? dst : src;
    std::vector<std::vector<std::pair<VertexIndex, EdgeIndex>>> edges_of(
        csr.num_vertices());
    for (EdgeIndex e = 0; e < keyed.size(); ++e) {
      ASSERT_LT(keyed[e], csr.num_vertices()) << "edge " << e;
      edges_of[keyed[e]].emplace_back(other[e], e);
    }
    for (VertexIndex v = 0; v < csr.num_vertices(); ++v) {
      const std::vector<std::pair<VertexIndex, EdgeIndex>>& want =
          edges_of[v];
      std::vector<std::pair<VertexIndex, EdgeIndex>> have;
      csr.for_each_part(v, [&](const AdjacencyPart& part) {
        for (std::size_t i = 0; i < part.size(); ++i) {
          have.emplace_back(part.neighbor(i), part.edge(i));
        }
      });
      ASSERT_EQ(have, want) << "vertex " << v;
      ASSERT_EQ(csr.degree(v), want.size()) << "vertex " << v;
    }
  }
}

TEST(CsrRestoreTest, BuiltArraysRoundTrip) {
  // Edge e runs source[e] -> target[e]; 3 sources, 3 targets.
  const std::vector<VertexIndex> from = {1, 0, 1, 2, 0};
  const std::vector<VertexIndex> to = {0, 2, 1, 2, 0};
  const EdgeType built = assembled(from, to, 3, 3);
  EXPECT_FALSE(built.source_is_identity());
  EXPECT_FALSE(built.forward().ordered_base());
  EXPECT_FALSE(built.reverse().ordered_base());
  EXPECT_EQ(built.endpoint_bytes(), 2 * tail_bytes(5));
  expect_adjacency_of_edges(built, from, to);
}

TEST(CsrRestoreTest, IdentityEdgeArrayIsDropped) {
  // Sorted by source, the edge array is the identity, and the neighbors
  // are the other endpoint array: only the offsets are stored.
  const std::vector<VertexIndex> from = {0, 0, 1, 1, 2};
  const std::vector<VertexIndex> to = {2, 0, 0, 1, 2};
  const EdgeType built = assembled(from, to, 3, 3);
  EXPECT_TRUE(built.forward().ordered_base());
  EXPECT_FALSE(built.forward().unit_base());
  EXPECT_EQ(built.forward().byte_size(), 4 * sizeof(std::uint32_t));
  expect_adjacency_of_edges(built, from, to);
}

TEST(CsrRestoreTest, OrderedRoundTripReadsTheEndpointArray) {
  // Three chunks' worth of edges, non-decreasing sources with one vertex
  // whose group spans a chunk boundary.
  std::vector<VertexIndex> from;
  std::vector<VertexIndex> to;
  for (std::size_t e = 0; e < 2 * kChunkRows + 300; ++e) {
    from.push_back(static_cast<VertexIndex>(e < 900 ? e / 3 : 300 + e / 700));
    to.push_back(static_cast<VertexIndex>(e * 7 % 11));
  }
  const EdgeType built = assembled(from, to, 310, 11);
  const CsrIndex& forward = built.forward();
  EXPECT_TRUE(forward.ordered_base());
  EXPECT_FALSE(forward.unit_base());
  EXPECT_EQ(forward.byte_size(), 311 * sizeof(std::uint32_t));
  expect_adjacency_of_edges(built, from, to);
  // Vertex 301's group, edges [900, 1400), crosses entry 1024.
  std::size_t parts = 0;
  std::vector<EdgeIndex> edges;
  forward.for_each_part(301, [&](const AdjacencyPart& part) {
    ++parts;
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part.neighbor(i), to[part.edge(i)]);
      edges.push_back(part.edge(i));
    }
  });
  EXPECT_EQ(parts, 2u);
  ASSERT_EQ(edges.size(), 500u);
  EXPECT_EQ(edges.front(), 900u);
  EXPECT_EQ(edges.back(), 1399u);

  // Five sealed chunks and an open tail of 300, groups of 100 edges per
  // source. The target chunks seal at every lane width: one value (0
  // bytes), a span of 199 (1), of 37851 (2), above 65535 (4, the plain
  // lanes read in place), then 49 (1). Vertex 10's group, edges
  // [1000, 1100), crosses entry 1024 from the width-0 chunk into the
  // width-1 one, and vertex 30's crosses 3072 from width 2 into width 4.
  const std::size_t kEdges = 5 * kChunkRows + 300;
  std::vector<VertexIndex> src;
  std::vector<VertexIndex> dst;
  for (std::size_t e = 0; e < kEdges; ++e) {
    src.push_back(static_cast<VertexIndex>(e / 100));
    const std::size_t target[] = {7, 100 + e % 200, e * 37 % 60000,
                                  e % 2 == 1 ? 70000 + e % 11 : e % 3,
                                  e % 50, e % 13};
    dst.push_back(static_cast<VertexIndex>(target[e / kChunkRows]));
  }
  const std::size_t num_src = kEdges / 100 + 1;
  const std::size_t num_dst = 70011;
  const EdgeType narrow = assembled(src, dst, num_src, num_dst);
  EXPECT_TRUE(narrow.forward().ordered_base());
  EXPECT_FALSE(narrow.forward().implicit_neighbors());
  // A sealed chunk is a 16-byte header and its lanes. The sources seal at
  // width 1 (spans of 10 or 11).
  const std::size_t src_bytes = 5 * (16 + kChunkRows) + tail_bytes(300);
  const std::size_t dst_bytes = 16 + (16 + kChunkRows) +
                                (16 + 2 * kChunkRows) +
                                (16 + 4 * kChunkRows) + (16 + kChunkRows) +
                                tail_bytes(300);
  EXPECT_EQ(narrow.endpoint_bytes(), src_bytes + dst_bytes);
  expect_adjacency_of_edges(narrow, src, dst);
  for (const VertexIndex v : {10u, 30u}) {
    std::size_t pieces = 0;
    narrow.forward().for_each_part(v, [&](const AdjacencyPart&) {
      ++pieces;
    });
    EXPECT_EQ(pieces, 2u) << "vertex " << v;
  }
  // The same edges appended to a prefix: into the prefix's tail (the
  // base keeps reading the prefix's arrays) and across three chunk seals
  // (the index folds and reads the appended arrays).
  for (const std::size_t first : {kEdges - 100, 3 * kChunkRows - 500}) {
    SCOPED_TRACE("extended from " + std::to_string(first) + " edges");
    const std::vector<VertexIndex> src_prefix(src.begin(),
                                              src.begin() + first);
    const std::vector<VertexIndex> dst_prefix(dst.begin(),
                                              dst.begin() + first);
    const EdgeType prefix = assembled(src_prefix, dst_prefix, num_src,
                                      num_dst);
    EndpointArray added_src;
    EndpointArray added_dst;
    added_src.append(src.data() + first, kEdges - first);
    added_dst.append(dst.data() + first, kEdges - first);
    const EdgeType extended = EdgeType::extend(
        prefix, num_src, num_dst, added_src, added_dst, nullptr,
        std::pmr::get_default_resource());
    EXPECT_EQ(extended.forward().shares_base(prefix.forward()),
              first == kEdges - 100);
    EXPECT_EQ(extended.endpoint_bytes(), narrow.endpoint_bytes());
    expect_adjacency_of_edges(extended, src, dst);
    expect_same_adjacency(extended.forward(), narrow.forward());
  }
}

TEST(CsrRestoreTest, UnitRoundTripStoresNoOffsets) {
  // Edge e runs from vertex e, one edge per vertex.
  std::vector<VertexIndex> from;
  std::vector<VertexIndex> to;
  for (std::size_t e = 0; e < kChunkRows + 5; ++e) {
    from.push_back(static_cast<VertexIndex>(e));
    to.push_back(static_cast<VertexIndex>(e % 13));
  }
  const EdgeType built = assembled(from, to, from.size(), 13);
  EXPECT_TRUE(built.source_is_identity());
  // The targets' sealed chunk spans 0..12: a 16-byte header and 1-byte
  // lanes.
  EXPECT_EQ(built.endpoint_bytes(), 16 + kChunkRows + tail_bytes(5));
  EXPECT_TRUE(built.forward().unit_base());
  EXPECT_EQ(built.forward().byte_size(), 0u);
  expect_adjacency_of_edges(built, from, to);
  for (VertexIndex v = 0; v < from.size(); ++v) {
    ASSERT_EQ(built.forward().degree(v), 1u);
    built.forward().for_each_part(v, [&](const AdjacencyPart& part) {
      EXPECT_EQ(part.neighbor(0), to[v]);
      EXPECT_EQ(part.edge(0), v);
    });
  }

  // One more vertex than edges: ordered, but the offsets are stored.
  const EdgeType wider = assembled(from, to, from.size() + 1, 13);
  EXPECT_TRUE(wider.forward().ordered_base());
  EXPECT_FALSE(wider.forward().unit_base());
  EXPECT_EQ(wider.forward().byte_size(),
            (from.size() + 2) * sizeof(std::uint32_t));
  expect_adjacency_of_edges(wider, from, to);
}

TEST(CsrRestoreTest, FlatOverIdentityStoresNoNeighbors) {
  // Edge e runs from vertex e to an unsorted target, as a foreign key does
  // over a referencing table not sorted by the key: the reverse index is
  // flat over the identity sources, so neighbor i is edge i and only the
  // offsets and edge ids are stored.
  std::vector<VertexIndex> from;
  std::vector<VertexIndex> to;
  for (std::size_t e = 0; e < kChunkRows + 37; ++e) {
    from.push_back(static_cast<VertexIndex>(e));
    to.push_back(static_cast<VertexIndex>(e * 7 % 13));
  }
  const std::size_t num_dst = 14;  // vertex 13 has no edges
  const EdgeType built = assembled(from, to, from.size(), num_dst);
  EXPECT_TRUE(built.source_is_identity());
  const CsrIndex& reverse = built.reverse();
  EXPECT_FALSE(reverse.ordered_base());
  EXPECT_TRUE(reverse.implicit_neighbors());
  EXPECT_EQ(reverse.byte_size(), (num_dst + 1) * sizeof(std::uint32_t) +
                                     from.size() * sizeof(EdgeIndex));
  for (VertexIndex v = 0; v < num_dst; ++v) {
    reverse.for_each_part(v, [&](const AdjacencyPart& part) {
      EXPECT_EQ(part.neighbors, nullptr) << "vertex " << v;
      for (std::size_t i = 0; i < part.size(); ++i) {
        EXPECT_EQ(part.neighbor(i), part.edge(i)) << "vertex " << v;
      }
    });
  }
  expect_adjacency_of_edges(built, from, to);
}

// ---- Frontier walks ----------------------------------------------------------
// The matcher walks a frontier with for_each_part_of, which reads an
// ordered base's neighbors a 64-vertex word at a time: it must list the
// same (neighbor, edge) pairs as for_each_part over the set bits.

/// `csr.for_each_part_of(bits)` gives the pairs that for_each_part gives
/// vertex by vertex over `bits`, in the same order.
void expect_frontier_walk_matches(const CsrIndex& csr,
                                  const DynamicBitset& bits) {
  std::vector<std::pair<VertexIndex, EdgeIndex>> want;
  bits.for_each([&](std::size_t v) {
    csr.for_each_part(static_cast<VertexIndex>(v),
                      [&](const AdjacencyPart& part) {
                        for (std::size_t i = 0; i < part.size(); ++i) {
                          want.emplace_back(part.neighbor(i), part.edge(i));
                        }
                      });
  });
  std::vector<std::pair<VertexIndex, EdgeIndex>> have;
  csr.for_each_part_of(bits, [&](const AdjacencyPart& part) {
    for (std::size_t i = 0; i < part.size(); ++i) {
      have.emplace_back(part.neighbor(i), part.edge(i));
    }
  });
  EXPECT_EQ(have, want);
}

TEST(CsrFrontierTest, WordWalkMatchesVertexWalk) {
  struct Case {
    std::string name;
    std::vector<VertexIndex> src;
    std::vector<VertexIndex> dst;
    std::size_t num_src = 0;
    std::size_t num_dst = 0;
    bool (*form)(const EdgeType&) = nullptr;  // the base form under test
  };
  Xoshiro256 rng(11);
  const std::size_t n = 4 * kChunkRows + 500;
  std::vector<Case> cases(4);
  cases[0].name = "flat";
  cases[0].form = [](const EdgeType& et) {
    return !et.forward().ordered_base();
  };
  cases[1].name = "ordered, one group past a chunk";
  cases[1].form = [](const EdgeType& et) {
    return et.forward().ordered_base() && !et.forward().unit_base();
  };
  cases[2].name = "unit";
  cases[2].form = [](const EdgeType& et) {
    return et.forward().unit_base();
  };
  cases[3].name = "unit over sorted targets";
  cases[3].form = [](const EdgeType& et) {
    return et.reverse().implicit_neighbors();
  };
  VertexIndex last = 0;
  for (std::size_t e = 0; e < n; ++e) {
    cases[0].src.push_back(static_cast<VertexIndex>(rng.below(700)));
    cases[0].dst.push_back(static_cast<VertexIndex>(rng.below(70000)));
    // Vertex 40's group, edges [1000, 3500), spans three chunks.
    cases[1].src.push_back(static_cast<VertexIndex>(
        e < 1000 ? e / 25 : e < 3500 ? 40 : 41 + (e - 3500) / 7));
    cases[1].dst.push_back(static_cast<VertexIndex>(rng.below(300)));
    cases[2].src.push_back(static_cast<VertexIndex>(e));
    cases[2].dst.push_back(static_cast<VertexIndex>(rng.below(5000)));
    last += rng.chance(0.3) ? 1 : 0;
    cases[3].src.push_back(static_cast<VertexIndex>(e));
    cases[3].dst.push_back(last);
  }
  cases[0].num_src = 700;
  cases[0].num_dst = 70000;
  cases[1].num_src = 41 + (n - 3500) / 7 + 1;
  cases[1].num_dst = 300;
  cases[2].num_src = n;
  cases[2].num_dst = 5000;
  cases[3].num_src = n;
  cases[3].num_dst = last + 1;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const EdgeType built = assembled(c.src, c.dst, c.num_src, c.num_dst);
    EXPECT_TRUE(c.form(built));
    // The same edges as a prefix extended by its last 50: a tail.
    const std::size_t first = n - 50;
    const EdgeType prefix =
        assembled({c.src.begin(), c.src.begin() + first},
                  {c.dst.begin(), c.dst.begin() + first}, c.num_src,
                  c.num_dst);
    EndpointArray added_src;
    EndpointArray added_dst;
    added_src.append(c.src.data() + first, n - first);
    added_dst.append(c.dst.data() + first, n - first);
    const EdgeType extended = EdgeType::extend(
        prefix, c.num_src, c.num_dst, added_src, added_dst, nullptr,
        std::pmr::get_default_resource());
    EXPECT_GT(extended.forward().tail_edges(), 0u);
    for (const EdgeType* et : {&built, &extended}) {
      for (const bool forward : {true, false}) {
        SCOPED_TRACE(forward ? "forward" : "reverse");
        const CsrIndex& csr = forward ? et->forward() : et->reverse();
        for (const double density : {0.01, 0.3, 1.0}) {
          DynamicBitset bits(csr.num_vertices());
          for (std::size_t v = 0; v < csr.num_vertices(); ++v) {
            if (rng.chance(density)) bits.set(v);
          }
          expect_frontier_walk_matches(csr, bits);
        }
      }
    }
  }
}

// ---- Identity arrays -------------------------------------------------------
// A unit edge type's sources and an unfiltered one-to-one vertex type's
// representative rows are the identity, which is not stored. Built and
// extended to the same state, a type stores the same arrays and reports
// the same adjacency and sizes: while the identity holds, after an ingest
// breaks it, and after a fold that follows the break. Recovery is a
// build.

TEST(EdgeIdentityTest, BuiltExtendedAndRestoredAgree) {
  struct Case {
    int break_at;      // the ingest that breaks the identity; -1: none
    std::size_t idle;  // source vertices past the last edge's
    bool sorted_dst = true;
  };
  for (const Case c :
       {Case{-1, 0}, Case{-1, 3}, Case{10, 0}, Case{10, 0, false}}) {
    SCOPED_TRACE("break at " + std::to_string(c.break_at) + ", idle " +
                 std::to_string(c.idle) +
                 (c.sorted_dst ? "" : ", unsorted targets"));
    Xoshiro256 rng(static_cast<std::uint64_t>(c.break_at + 7 + c.idle));
    // Edge e runs from vertex e to a non-decreasing target, as a foreign
    // key does over a referencing table sorted by the key: the reverse
    // index is ordered over the identity sources. Unsorted targets make
    // it flat over them: it stores edge ids and no neighbors.
    EndpointArray src;
    EndpointArray dst;
    EndpointArray added_src;  // the current ingest's edges
    EndpointArray added_dst;
    VertexIndex last_dst = 0;
    VertexIndex max_dst = 0;
    auto append = [&](VertexIndex s) {
      if (c.sorted_dst) {
        last_dst += rng.chance(0.3) ? 1 : 0;
      } else {
        last_dst = static_cast<VertexIndex>(rng.below(max_dst + 2));
      }
      max_dst = std::max(max_dst, last_dst);
      src.push_back(s);
      dst.push_back(last_dst);
      added_src.push_back(s);
      added_dst.push_back(last_dst);
    };
    for (VertexIndex e = 0; e < 200; ++e) append(e);
    auto num_src = [&] { return src.size() + c.idle; };
    auto num_dst = [&] { return std::size_t{max_dst} + 2; };
    EdgeType et = EdgeType::assemble(0, "E", 0, 1, num_src(), num_dst(), src,
                                     dst, nullptr,
                                     std::pmr::get_default_resource());
    EXPECT_TRUE(et.source_is_identity());
    EXPECT_TRUE(et.reverse().implicit_neighbors());
    EXPECT_EQ(et.reverse().ordered_base(), c.sorted_dst);
    EXPECT_EQ(et.forward().unit_base(), c.idle == 0);
    std::size_t folds_after_break = 0;
    std::size_t implicit_after_break = 0;  // bases built before the break
    for (int ingest = 0; ingest < 30; ++ingest) {
      SCOPED_TRACE("ingest " + std::to_string(ingest));
      added_src = {};
      added_dst = {};
      const std::size_t n = 1 + rng.below(8);
      for (std::size_t i = 0; i < n; ++i) {
        // The break gives the newest source vertex a second edge.
        const bool breaks = ingest == c.break_at && i == 0;
        append(static_cast<VertexIndex>(src.size() - (breaks ? 1 : 0)));
      }
      EdgeType next = EdgeType::extend(et, num_src(), num_dst(), added_src,
                                       added_dst, nullptr,
                                       std::pmr::get_default_resource());
      const EdgeType built = EdgeType::assemble(
          0, "E", 0, 1, num_src(), num_dst(), src, dst, nullptr,
          std::pmr::get_default_resource());
      const bool identity = c.break_at < 0 || ingest < c.break_at;
      EXPECT_EQ(built.source_is_identity(), identity);
      EXPECT_EQ(built.endpoint_bytes(),
                (identity ? 1u : 2u) * tail_bytes(built.num_edges()));
      EXPECT_EQ(next.source_is_identity(), identity);
      EXPECT_EQ(next.endpoint_bytes(), built.endpoint_bytes());
      for (EdgeIndex e = 0; e < built.num_edges(); ++e) {
        ASSERT_EQ(next.source_vertex(e), built.source_vertex(e));
        ASSERT_EQ(next.target_vertex(e), built.target_vertex(e));
      }
      expect_same_adjacency(next.forward(), built.forward());
      expect_same_adjacency(next.reverse(), built.reverse());
      EXPECT_EQ(built.reverse().implicit_neighbors(), identity);
      if (!c.sorted_dst) {
        // Offsets, edge ids and, once the sources are stored, neighbors.
        EXPECT_EQ(built.reverse().byte_size(),
                  (num_dst() + 1) * sizeof(std::uint32_t) +
                      built.num_edges() * (identity ? 4u : 8u));
      }
      if (!identity && !next.reverse().shares_base(et.reverse())) {
        ++folds_after_break;
      }
      implicit_after_break += !identity && next.reverse().implicit_neighbors();
      et = std::move(next);
    }
    if (c.break_at >= 0) {
      EXPECT_GT(folds_after_break, 0u);
      EXPECT_GT(implicit_after_break, 0u);
    }
  }
}

// ---- GraphView type-level queries ---------------------------------------------

/// The edge types of `graph` whose endpoint types pass `keep(source,
/// target)`: ∪_j E_j(V_a, V_b) (paper Sec. II-A1) and its one-sided forms.
template <typename Keep>
std::vector<EdgeTypeId> edge_types_where(const GraphView& graph, Keep keep) {
  std::vector<EdgeTypeId> out;
  for (EdgeTypeId id = 0; id < graph.num_edge_types(); ++id) {
    const EdgeType& et = graph.edge_type(id);
    if (keep(et.source_type(), et.target_type())) out.push_back(id);
  }
  return out;
}
std::vector<EdgeTypeId> edge_types_between(const GraphView& graph,
                                           VertexTypeId src,
                                           VertexTypeId dst) {
  return edge_types_where(graph, [&](VertexTypeId s, VertexTypeId t) {
    return s == src && t == dst;
  });
}
std::vector<EdgeTypeId> edge_types_from(const GraphView& graph,
                                        VertexTypeId src) {
  return edge_types_where(graph,
                          [&](VertexTypeId s, VertexTypeId) { return s == src; });
}
std::vector<EdgeTypeId> edge_types_into(const GraphView& graph,
                                        VertexTypeId dst) {
  return edge_types_where(graph,
                          [&](VertexTypeId, VertexTypeId t) { return t == dst; });
}

TEST_F(GraphTest, EdgeTypesBetween) {
  add_vertex("ProductVtx", "Products", "id");
  add_vertex("ProducerVtx", "Producers", "id");
  add_vertex("TypeVtx", "Types", "id");
  EdgeDecl producer{"producer",
                    {"ProductVtx", ""},
                    {"ProducerVtx", ""},
                    {},
                    eq(col("ProductVtx", "producer"),
                       col("ProducerVtx", "id"))};
  ASSERT_TRUE(add_edge_type(graph_, producer, tables_, pool_).is_ok());
  EdgeDecl type{"type",
                {"ProductVtx", ""},
                {"TypeVtx", ""},
                {"ProductTypes"},
                land(eq(col("ProductTypes", "product"),
                        col("ProductVtx", "id")),
                     eq(col("ProductTypes", "type"), col("TypeVtx", "id")))};
  ASSERT_TRUE(add_edge_type(graph_, type, tables_, pool_).is_ok());

  const auto pid = graph_.find_vertex_type("ProductVtx").value();
  const auto rid = graph_.find_vertex_type("ProducerVtx").value();
  const auto tid = graph_.find_vertex_type("TypeVtx").value();
  EXPECT_EQ(edge_types_between(graph_, pid, rid).size(), 1u);
  EXPECT_EQ(edge_types_between(graph_, rid, pid).size(), 0u);
  EXPECT_EQ(edge_types_from(graph_, pid).size(), 2u);
  EXPECT_EQ(edge_types_into(graph_, tid).size(), 1u);
  EXPECT_EQ(graph_.total_edges(), 8u);
  EXPECT_EQ(graph_.total_vertices(), 4u + 4u + 3u);
}

// ---- Ingest delta on a self-join (Fig. 3 `subclass`) ----------------------

std::vector<std::pair<std::string, std::string>> edge_keys(
    const GraphView& g, const EdgeType& et) {
  const VertexType& src = g.vertex_type(et.source_type());
  const VertexType& dst = g.vertex_type(et.target_type());
  std::vector<std::pair<std::string, std::string>> out;
  for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
    out.emplace_back(src.key_string(et.source_vertex(e)),
                     dst.key_string(et.target_vertex(e)));
  }
  return out;
}

TEST_F(GraphTest, SelfJoinIngestWithBothEndpointsNewAddsOneEdgeEach) {
  // The ingested table is both endpoints, so the delta runs two join
  // passes and finds every tuple whose endpoints are both new twice.
  // `subclass` joins past the key (A.parent), so it collapses onto vertex
  // pairs; `related` joins keys only through Links, so it dedups whole
  // tuples. Either way: one edge per tuple, and delta == rebuild.
  auto classes = std::make_shared<Table>(
      "Classes",
      Schema({{"id", DataType::varchar(10)},
              {"parent", DataType::varchar(10)}}),
      pool_);
  ASSERT_TRUE(storage::ingest_csv_text(*classes, "c1,c1\nc2,c1\n").is_ok());
  ASSERT_TRUE(tables_.add(classes).is_ok());
  auto links = std::make_shared<Table>(
      "Links",
      Schema({{"a", DataType::varchar(10)}, {"b", DataType::varchar(10)}}),
      pool_);
  ASSERT_TRUE(
      storage::ingest_csv_text(*links, "c1,c2\nc3,c4\nc5,c5\n").is_ok());
  ASSERT_TRUE(tables_.add(links).is_ok());

  const std::vector<VertexDecl> vertices = {
      {"ClassVtx", {"id"}, "Classes", nullptr}};
  const std::vector<EdgeDecl> edges = {
      {"subclass",
       {"ClassVtx", "A"},
       {"ClassVtx", "B"},
       {},
       eq(col("A", "parent"), col("B", "id"))},
      {"related",
       {"ClassVtx", "A"},
       {"ClassVtx", "B"},
       {"Links"},
       land(eq(col("Links", "a"), col("A", "id")),
            eq(col("Links", "b"), col("B", "id")))}};
  auto build = [&](GraphView& g) {
    for (const auto& d : vertices) {
      ASSERT_TRUE(add_vertex_type(g, d, tables_, pool_).is_ok());
    }
    for (const auto& d : edges) {
      const Status st = add_edge_type(g, d, tables_, pool_);
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    }
  };
  build(graph_);
  ASSERT_EQ(graph_.edge_type(0).num_edges(), 2u);  // c1->c1, c2->c1
  ASSERT_EQ(graph_.edge_type(1).num_edges(), 1u);  // c1-c2

  // The ingest: a copy-on-write clone with the batch appended. c3 and c4
  // point at each other and c5 at itself, so both endpoints are new.
  auto grown = std::make_shared<Table>(*classes);
  ASSERT_TRUE(
      storage::ingest_csv_text(*grown, "c3,c4\nc4,c3\nc5,c5\nc6,c1\n")
          .is_ok());
  tables_.add_or_replace(grown);
  auto applied = extend_graph_for_ingest(graph_, "Classes", 2, vertices,
                                         edges, tables_, pool_);
  ASSERT_TRUE(applied.is_ok()) << applied.status().to_string();
  ASSERT_TRUE(*applied);

  GraphView rebuilt;
  build(rebuilt);
  using Keys = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(edge_keys(graph_, graph_.edge_type(0)),
            (Keys{{"c1", "c1"}, {"c2", "c1"}, {"c3", "c4"}, {"c4", "c3"},
                  {"c5", "c5"}, {"c6", "c1"}}));
  EXPECT_EQ(edge_keys(graph_, graph_.edge_type(1)),
            (Keys{{"c1", "c2"}, {"c3", "c4"}, {"c5", "c5"}}));
  for (EdgeTypeId e = 0; e < 2; ++e) {
    EXPECT_EQ(edge_keys(graph_, graph_.edge_type(e)),
              edge_keys(rebuilt, rebuilt.edge_type(e)))
        << graph_.edge_type(e).name();
  }
  ASSERT_NE(graph_.edge_type(1).attr_table(), nullptr);
  EXPECT_EQ(graph_.edge_type(1).attr_table()->to_string(),
            rebuilt.edge_type(1).attr_table()->to_string());
}

// ---- Vertex key index vs. an encoded-key oracle --------------------------
//
// The oracle is the index the flat key table replaced: encode_row_key bytes
// in an unordered_map, where the first occurrence in row order takes the
// next vertex number.

class EncodedKeyOracle {
 public:
  explicit EncodedKeyOracle(std::vector<storage::ColumnIndex> cols)
      : cols_(std::move(cols)) {}

  void add(const Table& table, storage::RowIndex row) {
    const auto next = static_cast<VertexIndex>(rows_.size());
    if (index_.emplace(relational::encode_row_key(table, row, cols_), next)
            .second) {
      rows_.push_back(row);
    } else {
      one_to_one_ = false;
    }
  }

  VertexIndex find(const Table& table, storage::RowIndex row,
                   std::span<const storage::ColumnIndex> cols) const {
    auto it = index_.find(relational::encode_row_key(table, row, cols));
    return it == index_.end() ? kInvalidVertex : it->second;
  }

  const std::vector<storage::RowIndex>& rows() const { return rows_; }
  bool one_to_one() const { return one_to_one_; }

 private:
  std::vector<storage::ColumnIndex> cols_;
  std::unordered_map<std::string, VertexIndex> index_;
  std::vector<storage::RowIndex> rows_;
  bool one_to_one_ = true;
};

// Every key kind, with NULLs, -0.0 beside +0.0 and a NaN, from domains
// small enough that many rows collapse.
const std::vector<std::string> kKeyColumns = {"i", "d", "s", "b", "t"};

Value random_cell(Xoshiro256& rng, std::size_t column,
                  std::int64_t int_domain) {
  if (rng.chance(0.1)) return Value::null();
  switch (column) {
    case 0:
      return Value::int64(rng.range(-2, int_domain));
    case 1: {
      const double ds[] = {0.0, -0.0, 1.5, -1.5,
                           std::numeric_limits<double>::quiet_NaN()};
      return Value::float64(ds[rng.below(5)]);
    }
    case 2: {
      const char* ss[] = {"", "a", "bb", "ccc"};
      return Value::varchar(ss[rng.below(4)]);
    }
    case 3:
      return Value::boolean(rng.chance(0.5));
    default:
      return Value::date(rng.range(0, 3));
  }
}

/// Appends `n` random rows. `order` maps schema position -> key column
/// (0..4), or -1 for a payload column.
void append_random_rows(Table& table, const std::vector<int>& order,
                        std::size_t n, Xoshiro256& rng,
                        std::int64_t int_domain) {
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    for (const int c : order) {
      row.push_back(c < 0 ? Value::int64(static_cast<std::int64_t>(r))
                          : random_cell(rng, static_cast<std::size_t>(c),
                                        int_domain));
    }
    ASSERT_TRUE(table.append_row(row).is_ok());
  }
}

/// Appends one row whose every key cell lies outside the random domains,
/// so every key set has a probe that misses.
void append_absent_row(Table& table, const std::vector<int>& order) {
  const Value absent[] = {Value::int64(1000000), Value::float64(2.5),
                          Value::varchar("zz"), Value::boolean(true),
                          Value::date(99)};
  std::vector<Value> row;
  for (const int c : order) {
    row.push_back(c < 0 ? Value::int64(-1)
                        : absent[static_cast<std::size_t>(c)]);
  }
  ASSERT_TRUE(table.append_row(row).is_ok());
}

TablePtr random_table(StringPool& pool, std::string name,
                      const std::vector<int>& order) {
  std::vector<storage::ColumnDef> defs;
  for (const int c : order) {
    if (c < 0) {
      defs.push_back({"payload", DataType::int64()});
      continue;
    }
    const DataType types[] = {DataType::int64(), DataType::float64(),
                              DataType::varchar(8), DataType::boolean(),
                              DataType::date()};
    defs.push_back({kKeyColumns[static_cast<std::size_t>(c)],
                    types[static_cast<std::size_t>(c)]});
  }
  return std::make_shared<Table>(std::move(name), Schema(std::move(defs)),
                                 pool);
}

std::vector<storage::ColumnIndex> columns_of(
    const Table& table, const std::vector<std::string>& names) {
  std::vector<storage::ColumnIndex> cols;
  for (const auto& n : names) cols.push_back(*table.schema().find(n));
  return cols;
}

/// Checks `vt` against the oracle over every row of its source and of
/// `probe`, a different table whose columns sit in another order.
void expect_parity(const VertexType& vt, const Table& probe,
                   const std::vector<std::string>& key_names) {
  const Table& source = vt.source();
  EncodedKeyOracle oracle(vt.key_columns());
  for (std::size_t r = 0; r < source.num_rows(); ++r) {
    oracle.add(source, static_cast<storage::RowIndex>(r));
  }
  ASSERT_EQ(vt.num_vertices(), oracle.rows().size());
  const std::vector<storage::RowIndex> rows = rows_of(vt);
  EXPECT_TRUE(std::equal(oracle.rows().begin(), oracle.rows().end(),
                         rows.begin()));
  EXPECT_EQ(vt.one_to_one(), oracle.one_to_one());
  for (std::size_t r = 0; r < source.num_rows(); ++r) {
    const auto row = static_cast<storage::RowIndex>(r);
    ASSERT_EQ(vt.find_by_key(source, row, vt.key_columns()),
              oracle.find(source, row, vt.key_columns()))
        << "source row " << r;
  }
  const auto probe_cols = columns_of(probe, key_names);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < probe.num_rows(); ++r) {
    const auto row = static_cast<storage::RowIndex>(r);
    const VertexIndex want = oracle.find(probe, row, probe_cols);
    ASSERT_EQ(vt.find_by_key(probe, row, probe_cols), want)
        << "probe row " << r;
    hits += want != kInvalidVertex;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, probe.num_rows());  // some probes miss
}

TEST(VertexKeyIndexTest, FindByKeyMatchesEncodedKeyOracle) {
  const std::vector<std::vector<std::string>> key_sets = {
      {"i"},      {"d"},      {"s"},           {"b", "t"},
      {"i", "s"}, {"d", "b"}, {"s", "i", "d", "b", "t"}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& key_names : key_sets) {
      StringPool pool;
      Xoshiro256 rng(seed);
      auto source = random_table(pool, "Source", {-1, 0, 1, 2, 3, 4});
      append_random_rows(*source, {-1, 0, 1, 2, 3, 4}, 400, rng, 40);
      // The probe table's ints reach past the source's domain, and its
      // last row misses on every key column.
      const std::vector<int> probe_order = {4, 3, 2, -1, 1, 0};
      auto probe = random_table(pool, "Probe", probe_order);
      append_random_rows(*probe, probe_order, 400, rng, 80);
      append_absent_row(*probe, probe_order);
      auto vt = VertexType::build(0, "V", source,
                                  columns_of(*source, key_names), nullptr,
                                  std::pmr::get_default_resource());
      ASSERT_TRUE(vt.is_ok()) << vt.status().to_string();
      SCOPED_TRACE("seed " + std::to_string(seed) + " key " +
                   key_names.front() + " x" +
                   std::to_string(key_names.size()));
      expect_parity(*vt, *probe, key_names);
    }
  }
}

TEST(VertexKeyIndexTest, ExtendGrowsThroughSeveralRehashes) {
  // Batches appended to copy-on-write clones take the index from 16 slots
  // past 2048. After every batch the extended type equals a fresh build
  // of the grown table (numbering, representatives, bytes) and the oracle.
  StringPool pool;
  Xoshiro256 rng(7);
  const std::vector<int> order = {0, 2, -1, 1};
  const std::vector<std::string> key_names = {"i", "s"};
  auto table = random_table(pool, "Source", order);
  append_random_rows(*table, order, 6, rng, 600);
  const std::vector<int> probe_order = {2, 0, 1, -1};
  auto probe = random_table(pool, "Probe", probe_order);
  append_random_rows(*probe, probe_order, 500, rng, 1200);
  append_absent_row(*probe, probe_order);
  auto built = VertexType::build(0, "V", table, columns_of(*table, key_names),
                                 nullptr, std::pmr::get_default_resource());
  ASSERT_TRUE(built.is_ok());
  VertexType vt = std::move(built).value();
  const std::size_t first_bytes = vt.key_index_bytes();
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    auto grown = std::make_shared<Table>(*table);
    const auto first_new_row =
        static_cast<storage::RowIndex>(grown->num_rows());
    append_random_rows(*grown, order, batch * 60, rng, 600);
    bool flipped = false;
    auto extended =
        VertexType::extend(vt, grown, nullptr, first_new_row, &flipped);
    ASSERT_TRUE(extended.is_ok());
    auto fresh = VertexType::build(0, "V", grown,
                                   columns_of(*grown, key_names), nullptr,
                                   std::pmr::get_default_resource());
    ASSERT_TRUE(fresh.is_ok());
    // A first collapse into a one-to-one type flips it: callers rebuild.
    vt = flipped ? *fresh : std::move(extended).value();
    table = grown;
    SCOPED_TRACE("batch " + std::to_string(batch));
    EXPECT_EQ(rows_of(vt), rows_of(*fresh));
    EXPECT_EQ(vt.one_to_one(), fresh->one_to_one());
    EXPECT_EQ(vt.byte_size(), fresh->byte_size());
    expect_parity(vt, *probe, key_names);
  }
  // More than 1024 vertices need the slots IdTable::byte_size_for gives
  // them, several doublings past the first 16.
  EXPECT_GT(vt.num_vertices(), 1024u);
  EXPECT_EQ(first_bytes, IdTable::byte_size_for(1));
  EXPECT_EQ(vt.key_index_bytes(), IdTable::byte_size_for(vt.num_vertices()));
  EXPECT_GE(vt.key_index_bytes(), 64 * first_bytes);
}

TEST(VertexKeyIndexTest, TailFoldsFindEveryKey) {
  // Small batches keep most extends below the fold threshold, so the key
  // index is a shared base plus a tail, folded now and then. After every
  // batch each source row finds its vertex, the probe's absent keys miss,
  // and numbering and sizes equal a fresh build's.
  std::size_t folds = 0;
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StringPool pool;
    Xoshiro256 rng(seed);
    const std::vector<int> order = {0, -1, 2};
    const std::vector<std::string> key_names = {"s", "i"};
    auto table = random_table(pool, "Source", order);
    append_random_rows(*table, order, 150, rng, 400);
    const std::vector<int> probe_order = {2, 0};
    auto probe = random_table(pool, "Probe", probe_order);
    append_random_rows(*probe, probe_order, 300, rng, 800);
    append_absent_row(*probe, probe_order);
    auto built = VertexType::build(0, "V", table,
                                   columns_of(*table, key_names), nullptr,
                                   std::pmr::get_default_resource());
    ASSERT_TRUE(built.is_ok());
    VertexType vt = std::move(built).value();
    for (int batch = 0; batch < 40; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      auto grown = std::make_shared<Table>(*table);
      const auto first_new_row =
          static_cast<storage::RowIndex>(grown->num_rows());
      append_random_rows(*grown, order, rng.below(12), rng, 400);
      bool flipped = false;
      auto extended =
          VertexType::extend(vt, grown, nullptr, first_new_row, &flipped);
      ASSERT_TRUE(extended.is_ok());
      auto fresh = VertexType::build(0, "V", grown,
                                     columns_of(*grown, key_names), nullptr,
                                     std::pmr::get_default_resource());
      ASSERT_TRUE(fresh.is_ok());
      if (flipped) {
        vt = *fresh;
      } else {
        (extended->shares_key_base(vt) ? shared : folds) += 1;
        vt = std::move(extended).value();
      }
      table = grown;
      EXPECT_EQ(rows_of(vt), rows_of(*fresh));
      EXPECT_EQ(vt.key_index_bytes(), fresh->key_index_bytes());
      EXPECT_EQ(vt.byte_size(), fresh->byte_size());
      expect_parity(vt, *probe, key_names);
    }
  }
  EXPECT_GT(folds, 6u);
  EXPECT_GT(shared, 30u);
}

// Vertex `where` filters select rows through the relational kernels. A
// filtered many-to-one type over three storage chunks (the last ragged)
// with NULLs must equal a per-row eval_predicate check, built whole and
// built from a base that `extend` grows across a chunk seal.
TEST(VertexFilterTest, KernelFilterMatchesPerRowPredicate) {
  constexpr std::size_t kRows = 2 * kChunkRows + 555;
  constexpr std::size_t kBaseRows = 1000;  // extend crosses the first seal
  StringPool pool;
  Xoshiro256 rng(11);
  auto table = std::make_shared<Table>(
      "T",
      Schema({{"k", DataType::int64()},
              {"x", DataType::float64()},
              {"s", DataType::varchar(4)}}),
      pool);
  auto append_rows = [&](Table& t, std::size_t n) {
    const char* strings[] = {"aa", "bb", "cc"};
    for (std::size_t r = 0; r < n; ++r) {
      const bool x_null = rng() % 5 == 0;
      const bool s_null = rng() % 4 == 0;
      const std::vector<Value> row{
          Value::int64(static_cast<std::int64_t>(rng() % 300)),
          x_null ? Value::null()
                 : Value::float64(static_cast<double>(rng() % 16) / 8.0),
          s_null ? Value::null() : Value::varchar(strings[rng() % 3])};
      ASSERT_TRUE(t.append_row(row).is_ok());
    }
  };
  append_rows(*table, kBaseRows);
  auto grown = std::make_shared<Table>(*table);
  append_rows(*grown, kRows - kBaseRows);

  // (x > 0.5 or s = 'bb') and k <> 7: NULLs in x and s reach the 3VL or.
  const ExprPtr where = land(
      Expr::make_binary(
          BinaryOp::kOr,
          Expr::make_binary(BinaryOp::kGt, col("", "x"),
                            Expr::make_literal(Value::float64(0.5))),
          eq(col("", "s"), Expr::make_literal(Value::varchar("bb")))),
      ne(col("", "k"), Expr::make_literal(Value::int64(7))));
  auto bind = [&](const Table& t) {
    relational::TableScope scope(t, "V");
    auto bound = relational::bind_predicate(where, scope, {}, pool);
    GEMS_CHECK_MSG(bound.is_ok(), bound.status().to_string().c_str());
    return std::move(bound).value();
  };

  // Oracle: per-row predicate, vertices numbered by first passing row.
  std::vector<bool> passes(kRows);
  std::vector<storage::RowIndex> representatives;
  std::set<std::int64_t> seen_keys;
  const auto filter = bind(*grown);
  relational::RowCursor cursor{grown.get(), 0};
  for (std::size_t r = 0; r < kRows; ++r) {
    cursor.row = static_cast<storage::RowIndex>(r);
    passes[r] = relational::eval_predicate(*filter, {&cursor, 1}, pool);
    if (passes[r] && seen_keys.insert(grown->column(0).int64_at(cursor.row))
                         .second) {
      representatives.push_back(cursor.row);
    }
  }
  // The filter keeps some rows and drops others, and keys collapse.
  const auto kept = std::count(passes.begin(), passes.end(), true);
  ASSERT_GT(kept, static_cast<std::ptrdiff_t>(representatives.size()));
  ASSERT_LT(kept, static_cast<std::ptrdiff_t>(kRows));
  auto expect_matches_oracle = [&](const VertexType& vt, const char* what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(vt.matching_rows().size(), kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(vt.matching_rows().test(r), passes[r]) << "row " << r;
    }
    const std::vector<storage::RowIndex> rows = rows_of(vt);
    EXPECT_TRUE(std::equal(representatives.begin(), representatives.end(),
                           rows.begin(), rows.end()));
    EXPECT_FALSE(vt.one_to_one());
  };

  auto whole = VertexType::build(0, "V", grown, {0}, bind(*grown).get(),
                                std::pmr::get_default_resource());
  ASSERT_TRUE(whole.is_ok());
  expect_matches_oracle(*whole, "build");

  auto base = VertexType::build(0, "V", table, {0}, bind(*table).get(),
                               std::pmr::get_default_resource());
  ASSERT_TRUE(base.is_ok());
  ASSERT_FALSE(base->one_to_one());  // many-to-one already: extend never flips
  bool flipped = false;
  auto extended = VertexType::extend(*base, grown, filter.get(),
                                     static_cast<storage::RowIndex>(kBaseRows),
                                     &flipped);
  ASSERT_TRUE(extended.is_ok());
  ASSERT_FALSE(flipped);
  expect_matches_oracle(*extended, "extend");
  EXPECT_EQ(extended->byte_size(), whole->byte_size());
}

// A vertex type over ids 0, 1, 2, … filtered by `k <> -1`: its
// representative rows are the identity until an ingest appends a row with
// k = -1 and then one that passes.
TEST(VertexIdentityTest, BuiltExtendedAndRestoredAgree) {
  for (const int break_at : {-1, 10}) {
    SCOPED_TRACE("break at " + std::to_string(break_at));
    StringPool pool;
    Xoshiro256 rng(static_cast<std::uint64_t>(break_at + 3));
    auto table = std::make_shared<Table>(
        "T", Schema({{"k", DataType::int64()}}), pool);
    std::int64_t next_key = 0;
    auto append_rows = [&](Table& t, std::size_t n, bool filtered_first) {
      for (std::size_t i = 0; i < n; ++i) {
        const bool filtered = filtered_first && i == 0;
        const Value row[] = {Value::int64(filtered ? -1 : next_key++)};
        ASSERT_TRUE(t.append_row(row).is_ok());
      }
    };
    append_rows(*table, 300, false);
    const ExprPtr where =
        ne(col("", "k"), Expr::make_literal(Value::int64(-1)));
    auto bind = [&](const Table& t) {
      relational::TableScope scope(t, "V");
      auto bound = relational::bind_predicate(where, scope, {}, pool);
      GEMS_CHECK_MSG(bound.is_ok(), bound.status().to_string().c_str());
      return std::move(bound).value();
    };
    auto built = VertexType::build(0, "V", table, {0}, bind(*table).get(),
                                   std::pmr::get_default_resource());
    ASSERT_TRUE(built.is_ok());
    VertexType vt = std::move(built).value();
    EXPECT_TRUE(vt.identity_rows());
    std::size_t folds_after_break = 0;
    for (int ingest = 0; ingest < 30; ++ingest) {
      SCOPED_TRACE("ingest " + std::to_string(ingest));
      auto grown = std::make_shared<Table>(*table);
      const auto first_new_row =
          static_cast<storage::RowIndex>(grown->num_rows());
      append_rows(*grown, 2 + rng.below(12), ingest == break_at);
      bool flipped = false;
      auto extended = VertexType::extend(vt, grown, bind(*grown).get(),
                                         first_new_row, &flipped);
      ASSERT_TRUE(extended.is_ok());
      ASSERT_FALSE(flipped);
      auto fresh = VertexType::build(0, "V", grown, {0}, bind(*grown).get(),
                                     std::pmr::get_default_resource());
      ASSERT_TRUE(fresh.is_ok());
      const bool identity = break_at < 0 || ingest < break_at;
      EXPECT_EQ(fresh->identity_rows(), identity);
      EXPECT_EQ(fresh->byte_size(),
                fresh->key_index_bytes() +
                    (identity ? 0 : tail_bytes(fresh->num_vertices())) +
                    (grown->num_rows() + 63) / 64 * sizeof(std::uint64_t));
      EXPECT_EQ(extended->identity_rows(), identity);
      EXPECT_EQ(extended->one_to_one(), fresh->one_to_one());
      EXPECT_EQ(extended->byte_size(), fresh->byte_size());
      EXPECT_EQ(extended->matching_rows(), fresh->matching_rows());
      EXPECT_EQ(rows_of(*extended), rows_of(*fresh));
      for (std::size_t r = 0; r < grown->num_rows(); ++r) {
        const auto row = static_cast<storage::RowIndex>(r);
        ASSERT_EQ(extended->find_by_key(*grown, row, {{0}}),
                  fresh->find_by_key(*grown, row, {{0}}))
            << "row " << r;
      }
      if (!identity && !extended->shares_key_base(vt)) ++folds_after_break;
      vt = std::move(extended).value();
      table = grown;
    }
    if (break_at >= 0) {
      EXPECT_GT(folds_after_break, 0u);
    }
  }
}

// Single-source conjuncts of an edge declaration select join candidates
// through the relational kernels (`filter_rows`, from the delta's first
// row on), intersected with the endpoint's vertex filter. Over three
// storage chunks (the last ragged) with NULLs, the edges must equal a
// per-row eval_predicate check, built whole and as base + delta across
// the chunk seals. The target side's conjunct makes its attach hash
// instead of probing the key index.
TEST(EdgeFilterTest, KernelFilterMatchesPerRowPredicate) {
  constexpr std::size_t kRows = 2 * kChunkRows + 555;
  constexpr std::size_t kBaseRows = 1000;  // the delta crosses two seals
  constexpr std::int64_t kTags = 20;
  StringPool pool;
  Xoshiro256 rng(23);
  auto items = std::make_shared<Table>(
      "Items",
      Schema({{"k", DataType::int64()},
              {"x", DataType::float64()},
              {"s", DataType::varchar(4)},
              {"tag", DataType::int64()},
              {"w", DataType::int64()}}),
      pool);
  auto append_items = [&](Table& t, std::size_t n) {
    const char* strings[] = {"aa", "bb", "cc"};
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<Value> row{
          Value::int64(static_cast<std::int64_t>(t.num_rows())),
          rng() % 5 == 0
              ? Value::null()
              : Value::float64(static_cast<double>(rng() % 16) / 8.0),
          rng() % 4 == 0 ? Value::null() : Value::varchar(strings[rng() % 3]),
          rng() % 6 == 0
              ? Value::null()
              : Value::int64(static_cast<std::int64_t>(rng() % (kTags + 4))),
          Value::int64(static_cast<std::int64_t>(rng() % 5))};
      ASSERT_TRUE(t.append_row(row).is_ok());
    }
  };
  append_items(*items, kBaseRows);
  auto tags = std::make_shared<Table>(
      "Tags", Schema({{"id", DataType::int64()}, {"y", DataType::int64()}}),
      pool);
  for (std::int64_t i = 0; i < kTags; ++i) {
    const std::vector<Value> row{
        Value::int64(i), i % 7 == 3 ? Value::null() : Value::int64(i % 3)};
    ASSERT_TRUE(tags->append_row(row).is_ok());
  }
  storage::TableCatalog tables;
  ASSERT_TRUE(tables.add(items).is_ok());
  ASSERT_TRUE(tables.add(tags).is_ok());

  const std::vector<VertexDecl> vertices = {
      {"ItemVtx", {"k"}, "Items",
       ne(col("ItemVtx", "w"), Expr::make_literal(Value::int64(3)))},
      {"TagVtx", {"id"}, "Tags", nullptr}};
  // (x > 0.5 or s = 'bb') and k <> 7: NULLs in x and s reach the 3VL or.
  const ExprPtr item_filter = land(
      Expr::make_binary(
          BinaryOp::kOr,
          Expr::make_binary(BinaryOp::kGt, col("ItemVtx", "x"),
                            Expr::make_literal(Value::float64(0.5))),
          eq(col("ItemVtx", "s"), Expr::make_literal(Value::varchar("bb")))),
      ne(col("ItemVtx", "k"), Expr::make_literal(Value::int64(7))));
  const ExprPtr tag_filter =
      ne(col("TagVtx", "y"), Expr::make_literal(Value::int64(1)));
  const std::vector<EdgeDecl> edges = {
      {"tagged",
       {"ItemVtx", ""},
       {"TagVtx", ""},
       {},
       land(land(eq(col("ItemVtx", "tag"), col("TagVtx", "id")), item_filter),
            tag_filter)}};
  auto build = [&](GraphView& g) {
    for (const auto& d : vertices) {
      ASSERT_TRUE(add_vertex_type(g, d, tables, pool).is_ok());
    }
    const Status st = add_edge_type(g, edges[0], tables, pool);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  };
  GraphView graph;
  build(graph);

  auto grown = std::make_shared<Table>(*items);
  append_items(*grown, kRows - kBaseRows);
  tables.add_or_replace(grown);
  auto applied = extend_graph_for_ingest(graph, "Items",
                                         static_cast<storage::RowIndex>(
                                             kBaseRows),
                                         vertices, edges, tables, pool);
  ASSERT_TRUE(applied.is_ok()) << applied.status().to_string();
  ASSERT_TRUE(*applied);
  GraphView whole;
  build(whole);

  // Oracle: per-row predicates; one-to-one types number their passing
  // rows in order, and Tags row i holds id i.
  auto bind = [&](const ExprPtr& e, const Table& t, const char* alias) {
    relational::TableScope scope(t, alias);
    auto bound = relational::bind_predicate(e, scope, {}, pool);
    GEMS_CHECK_MSG(bound.is_ok(), bound.status().to_string().c_str());
    return std::move(bound).value();
  };
  const auto vertex_where = bind(vertices[0].where, *grown, "ItemVtx");
  const auto item_where = bind(item_filter, *grown, "ItemVtx");
  const auto tag_where = bind(tag_filter, *tags, "TagVtx");
  std::vector<std::pair<VertexIndex, VertexIndex>> want;
  relational::RowCursor item{grown.get(), 0};
  relational::RowCursor tag{tags.get(), 0};
  VertexIndex item_vertex = 0;
  std::size_t filtered_out = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    item.row = static_cast<storage::RowIndex>(r);
    if (!relational::eval_predicate(*vertex_where, {&item, 1}, pool)) continue;
    const VertexIndex v = item_vertex++;
    if (!relational::eval_predicate(*item_where, {&item, 1}, pool)) {
      ++filtered_out;
      continue;
    }
    const Value t = grown->value_at(item.row, 3);
    if (t.is_null() || t.as_int64() >= kTags) continue;
    tag.row = static_cast<storage::RowIndex>(t.as_int64());
    if (!relational::eval_predicate(*tag_where, {&tag, 1}, pool)) continue;
    want.emplace_back(v, tag.row);
  }
  ASSERT_GT(filtered_out, 0u);
  ASSERT_GT(want.size(), kChunkRows / 2);

  for (const GraphView* g : {&whole, &graph}) {
    SCOPED_TRACE(g == &whole ? "build" : "base + delta");
    const EdgeType& et = g->edge_type(0);
    std::vector<std::pair<VertexIndex, VertexIndex>> got;
    for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
      got.emplace_back(et.source_vertex(e), et.target_vertex(e));
    }
    EXPECT_EQ(got, want);
  }
}

// ---- Pooled rebuild ---------------------------------------------------------
// build_graph fans the types out over the database's intra-node pool. A
// database with four workers and one without must end up with the same
// bytes, intern the rebuild's literals under the same ids, and fail with
// the same status.

std::unique_ptr<server::Database> berlin(std::size_t scale,
                                         std::size_t threads) {
  server::DatabaseOptions options;
  options.intra_node_threads = threads;
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(scale, 3), options);
  GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
  return std::move(db).value();
}

TEST(GraphRebuildTest, PooledMatchesSerial) {
  for (const std::size_t scale : {200, 2000}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    const auto pooled = berlin(scale, 4);
    const auto serial = berlin(scale, 0);
    EXPECT_EQ(pooled->snapshot_bytes(), serial->snapshot_bytes());
    EXPECT_EQ(expect_same_graph(pooled->graph(), serial->graph()),
              2 * serial->graph().num_edge_types());
  }

  const auto pooled = berlin(200, 4);
  const auto serial = berlin(200, 0);
  const std::array<server::Database*, 2> dbs = {pooled.get(), serial.get()};

  // Declarations whose vertex filters and edge residual name literals that
  // are not yet in the pool: the rebuild binds them, and so interns the
  // literals, in declaration order on the calling thread, whatever order
  // the types then build in (the Offers type, declared second, is the
  // larger and builds first).
  const std::array<std::string, 3> literals = {
      "rebuild-only product literal", "rebuild-only offer literal",
      "rebuild-only edge literal"};
  for (server::Database* db : dbs) {
    for (const std::string& literal : literals) {
      ASSERT_EQ(db->pool().find(literal), kInvalidStringId);
    }
    exec::ExecContext& ctx = db->context();
    const auto literal = [&](std::size_t i) {
      return Expr::make_literal(Value::varchar(literals[i]));
    };
    ctx.vertex_decls.push_back({"LabeledProduct", {"id"}, "Products",
                                ne(col("Products", "label"), literal(0))});
    ctx.vertex_decls.push_back({"LabeledOffer", {"id"}, "Offers",
                                ne(col("Offers", "vendor"), literal(1))});
    ctx.edge_decls.push_back(
        {"labeledProducer",
         {"LabeledProduct", ""},
         {"ProducerVtx", ""},
         {},
         land(eq(col("LabeledProduct", "producer"), col("ProducerVtx", "id")),
              Expr::make_binary(BinaryOp::kOr,
                                ne(col("LabeledProduct", "label"), literal(2)),
                                ne(col("LabeledProduct", "label"),
                                   col("ProducerVtx", "label"))))});
    ASSERT_TRUE(ctx.rebuild_graph().is_ok());
    db->refresh_epoch();
  }
  const StringId first = pooled->pool().find(literals[0]);
  ASSERT_NE(first, kInvalidStringId);
  for (std::size_t i = 0; i < literals.size(); ++i) {
    EXPECT_EQ(pooled->pool().find(literals[i]), first + i) << literals[i];
    EXPECT_EQ(serial->pool().find(literals[i]), first + i) << literals[i];
  }
  EXPECT_EQ(pooled->snapshot_bytes(), serial->snapshot_bytes());
  EXPECT_EQ(expect_same_graph(pooled->graph(), serial->graph()),
            2 * serial->graph().num_edge_types());
  EXPECT_GT(pooled->graph().edge_type(9).num_edges(), 0u);

  // Two broken declarations: each build reports the earlier one's status
  // and keeps its graph.
  const auto rebuild_status = [&](server::Database& db) {
    const std::uint64_t version = db.context().graph_version;
    const Status status = db.context().rebuild_graph();
    EXPECT_EQ(db.context().graph_version, version);
    return status;
  };
  const auto disconnected = [](std::string name) {
    return EdgeDecl{std::move(name),
                    {"ProductVtx", ""},
                    {"ProducerVtx", ""},
                    {"Offers"},
                    eq(col("ProductVtx", "producer"),
                       col("ProducerVtx", "id"))};
  };
  std::vector<Status> statuses;
  for (server::Database* db : dbs) {
    exec::ExecContext& ctx = db->context();
    // Both fail while building, possibly on two workers at once.
    ctx.edge_decls.push_back(disconnected("brokenFirst"));
    ctx.edge_decls.push_back(disconnected("brokenSecond"));
    statuses.push_back(rebuild_status(*db));
    ctx.edge_decls.resize(ctx.edge_decls.size() - 2);
    // A build failure (no key columns) before a bind failure (no table).
    ctx.vertex_decls.push_back({"NoKey", {}, "Products", nullptr});
    ctx.vertex_decls.push_back({"NoTable", {"id"}, "Missing", nullptr});
    statuses.push_back(rebuild_status(*db));
    ctx.vertex_decls.resize(ctx.vertex_decls.size() - 2);
  }
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kInvalidArgument);
  EXPECT_NE(statuses[0].message().find("'brokenFirst'"), std::string::npos)
      << statuses[0].to_string();
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidArgument);
  EXPECT_NE(statuses[1].message().find("'NoKey'"), std::string::npos)
      << statuses[1].to_string();
  EXPECT_EQ(statuses[2].to_string(), statuses[0].to_string());
  EXPECT_EQ(statuses[3].to_string(), statuses[1].to_string());
}

}  // namespace
}  // namespace gems::graph
