// End-to-end execution tests: every query figure of the paper (Figs. 6-13)
// runs as actual GraQL text against a miniature Berlin database, through
// parse -> lower -> match -> enumerate -> materialize.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>

#include "exec/executor.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "graql/parser.hpp"
#include "storage/csv.hpp"

namespace gems::exec {
namespace {

using graql::parse_script;
using storage::Table;
using storage::TablePtr;
using storage::Value;

/// Miniature Berlin database:
///   producers pr1 (US) {p1, p2}, pr2 (DE) {p3, p4}
///   features  p1:{f1,f2,f3} p2:{f1,f2} p3:{f3,f4} p4:{f4}
///   types     t2,t3 subclass of t1; t4 subclass of t2; t5 self-loop;
///             p1,p2:t2  p3,p4:t3
///   offers    o1(p1,v1,50,3) o2(p1,v2,45,7) o3(p2,v1,30,2) o4(p4,v2,20,5)
///   persons   u1(US) u2(DE) u3(US)
///   reviews   r1(p1,u1,8) r2(p1,u2,9) r3(p2,u1,7) r4(p3,u3,4) r5(p4,u2,5)
class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    ctx_.pool = &pool_;
    run_script(R"(
      create table Producers(id varchar(10), country varchar(10))
      create table Products(id varchar(10), label varchar(10),
                            producer varchar(10))
      create table Features(id varchar(10))
      create table ProductFeatures(product varchar(10), feature varchar(10))
      create table Types(id varchar(10), subclassOf varchar(10))
      create table ProductTypes(product varchar(10), type varchar(10))
      create table Vendors(id varchar(10), country varchar(10))
      create table Offers(id varchar(10), product varchar(10),
                          vendor varchar(10), price float,
                          deliveryDays integer, validFrom date)
      create table Persons(id varchar(10), country varchar(10))
      create table Reviews(id varchar(10), reviewFor varchar(10),
                           reviewer varchar(10), rating integer)
    )");
    fill("Producers", "pr1,US\npr2,DE\n");
    fill("Products", "p1,A,pr1\np2,B,pr1\np3,C,pr2\np4,D,pr2\n");
    fill("Features", "f1\nf2\nf3\nf4\n");
    fill("ProductFeatures",
         "p1,f1\np1,f2\np1,f3\np2,f1\np2,f2\np3,f3\np3,f4\np4,f4\n");
    fill("Types", "t1,\nt2,t1\nt3,t1\nt4,t2\nt5,t5\n");
    fill("ProductTypes", "p1,t2\np2,t2\np3,t3\np4,t3\n");
    fill("Vendors", "v1,US\nv2,CN\n");
    fill("Offers",
         "o1,p1,v1,50,3,2008-01-05\no2,p1,v2,45,7,2008-02-10\n"
         "o3,p2,v1,30,2,2008-03-15\no4,p4,v2,20,5,2008-04-20\n");
    fill("Persons", "u1,US\nu2,DE\nu3,US\n");
    fill("Reviews", "r1,p1,u1,8\nr2,p1,u2,9\nr3,p2,u1,7\nr4,p3,u3,4\n"
                    "r5,p4,u2,5\n");
    run_script(R"(
      create vertex ProducerVtx(id) from table Producers
      create vertex ProductVtx(id) from table Products
      create vertex FeatureVtx(id) from table Features
      create vertex TypeVtx(id) from table Types
      create vertex VendorVtx(id) from table Vendors
      create vertex OfferVtx(id) from table Offers
      create vertex PersonVtx(id) from table Persons
      create vertex ReviewVtx(id) from table Reviews

      create edge producer with vertices (ProductVtx, ProducerVtx)
        where ProductVtx.producer = ProducerVtx.id
      create edge feature with vertices (ProductVtx, FeatureVtx)
        from table ProductFeatures
        where ProductFeatures.product = ProductVtx.id
          and ProductFeatures.feature = FeatureVtx.id
      create edge type with vertices (ProductVtx, TypeVtx)
        from table ProductTypes
        where ProductTypes.product = ProductVtx.id
          and ProductTypes.type = TypeVtx.id
      create edge subclass with vertices (TypeVtx as A, TypeVtx as B)
        where A.subclassOf = B.id
      create edge product with vertices (OfferVtx, ProductVtx)
        where OfferVtx.product = ProductVtx.id
      create edge vendor with vertices (OfferVtx, VendorVtx)
        where OfferVtx.vendor = VendorVtx.id
      create edge reviewFor with vertices (ReviewVtx, ProductVtx)
        where ReviewVtx.reviewFor = ProductVtx.id
      create edge reviewer with vertices (ReviewVtx, PersonVtx)
        where ReviewVtx.reviewer = PersonVtx.id
    )");
  }

  void fill(const std::string& table, const std::string& csv) {
    auto t = ctx_.tables.find(table);
    ASSERT_TRUE(t.is_ok()) << t.status().to_string();
    auto r = storage::ingest_csv_text(**t, csv);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }

  /// Runs a script; returns the last statement's result.
  StatementResult run_script(const std::string& text) {
    auto script = parse_script(text);
    GEMS_CHECK_MSG(script.is_ok(), script.status().to_string().c_str());
    StatementResult last;
    for (const auto& stmt : script->statements) {
      auto r = execute_statement(stmt, ctx_);
      GEMS_CHECK_MSG(r.is_ok(),
                     (graql::to_string(stmt) + "\n" + r.status().to_string())
                         .c_str());
      last = std::move(r).value();
    }
    return last;
  }

  Status run_expect_error(const std::string& text) {
    auto script = parse_script(text);
    if (!script.is_ok()) return script.status();
    for (const auto& stmt : script->statements) {
      auto r = execute_statement(stmt, ctx_);
      if (!r.is_ok()) return r.status();
    }
    return Status::ok();
  }

  /// Collects a column as strings, in row order.
  static std::vector<std::string> column_strings(const Table& t,
                                                 const std::string& name) {
    auto idx = t.schema().find(name);
    GEMS_CHECK(idx.has_value());
    std::vector<std::string> out;
    for (storage::RowIndex r = 0; r < t.num_rows(); ++r) {
      out.push_back(t.value_at(r, *idx).to_string());
    }
    return out;
  }

  StringPool pool_;
  ExecContext ctx_;
};

// ---- Fig. 6: Berlin Query 2 -------------------------------------------------

TEST_F(ExecTest, Fig6BerlinQuery2) {
  ctx_.params.emplace("Product1", Value::varchar("p1"));
  auto r1 = run_script(
      "select y.id from graph\n"
      "ProductVtx (id = %Product1%)\n"
      "--feature--> FeatureVtx ( )\n"
      "<--feature-- def y: ProductVtx (id <> %Product1%)\n"
      "into table T1");
  ASSERT_EQ(r1.kind, StatementResult::Kind::kTable);
  // One row per shared feature: p2 shares f1,f2; p3 shares f3.
  ASSERT_EQ(r1.table->num_rows(), 3u);

  auto r2 = run_script(
      "select top 10 id, count(*) as groupCount\n"
      "from table T1\n"
      "group by id order by groupCount desc");
  ASSERT_EQ(r2.table->num_rows(), 2u);
  EXPECT_EQ(column_strings(*r2.table, "id"),
            (std::vector<std::string>{"p2", "p3"}));
  EXPECT_EQ(column_strings(*r2.table, "groupCount"),
            (std::vector<std::string>{"2", "1"}));
}

// ---- Fig. 7: Berlin Query 1 (multi-path and, foreach) -------------------------

TEST_F(ExecTest, Fig7BerlinQuery1) {
  ctx_.params.emplace("Country1", Value::varchar("US"));
  ctx_.params.emplace("Country2", Value::varchar("US"));
  auto r1 = run_script(
      "select TypeVtx.id from graph\n"
      "PersonVtx (country = %Country2%)\n"
      "<--reviewer-- ReviewVtx ()\n"
      "--reviewFor--> foreach y: ProductVtx ()\n"
      "--producer--> ProducerVtx (country = %Country1%)\n"
      "and\n"
      "(y --type--> TypeVtx ())\n"
      "into table T1");
  // US reviewers u1,u3 reviewed p1 (r1), p2 (r3), p3 (r4); of those,
  // p1 and p2 have US producers; both have type t2.
  ASSERT_EQ(r1.table->num_rows(), 2u);
  EXPECT_EQ(column_strings(*r1.table, "id"),
            (std::vector<std::string>{"t2", "t2"}));

  auto r2 = run_script(
      "select top 10 id, count(*) as n from table T1 group by id "
      "order by n desc");
  ASSERT_EQ(r2.table->num_rows(), 1u);
  EXPECT_EQ(r2.table->value_at(0, 0).as_string(), "t2");
  EXPECT_EQ(r2.table->value_at(0, 1).as_int64(), 2);
}

// ---- Fig. 9: type matching --------------------------------------------------

TEST_F(ExecTest, Fig9TypeMatchingSubgraph) {
  auto r = run_script(
      "select * from graph ProductVtx (id = 'p1') <--[]-- [ ] "
      "into subgraph allProduct1");
  ASSERT_EQ(r.kind, StatementResult::Kind::kSubgraph);
  // Incoming edges to p1: offers o1,o2 (product) and reviews r1,r2
  // (reviewFor). Vertices: p1 + those four.
  EXPECT_EQ(r.subgraph->num_vertices(), 5u);
  EXPECT_EQ(r.subgraph->num_edges(), 4u);
}

TEST_F(ExecTest, VariantStepForward) {
  // p4 --[]--> anything: feature f4 and type t3.
  auto r = run_script(
      "select * from graph ProductVtx (id = 'p4') --[]--> [ ] "
      "into subgraph g");
  // Outgoing from p4: feature f4, type t3, producer pr2.
  EXPECT_EQ(r.subgraph->num_vertices(), 4u);
  EXPECT_EQ(r.subgraph->num_edges(), 3u);
}

// ---- Fig. 10: path regular expressions ----------------------------------------

TEST_F(ExecTest, Fig10RegexPlusOverSubclass) {
  // t4 -subclass-> t2 -subclass-> t1: + reaches both t2 and t1.
  auto r = run_script(
      "select * from graph TypeVtx (id = 't4') ( --subclass--> [ ] )+ "
      "into table R");
  ASSERT_EQ(r.kind, StatementResult::Kind::kTable);
  // Rows: one per (start, end) pair with end in closure = {t2, t1}.
  EXPECT_EQ(r.table->num_rows(), 2u);
}

TEST_F(ExecTest, RegexStarIncludesStart) {
  auto r = run_script(
      "select * from graph TypeVtx (id = 't4') ( --subclass--> [ ] )* "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 3u);  // t4 itself, t2, t1
}

TEST_F(ExecTest, RegexExactCount) {
  auto two = run_script(
      "select * from graph TypeVtx (id = 't4') ( --subclass--> [ ] ){2} "
      "into table R");
  EXPECT_EQ(two.table->num_rows(), 1u);  // t1

  auto three = run_script(
      "select * from graph TypeVtx (id = 't4') ( --subclass--> [ ] ){3} "
      "into table R");
  EXPECT_EQ(three.table->num_rows(), 0u);  // chain ends at t1
}

TEST_F(ExecTest, RegexVariantHops) {
  // p4 --type--> t3 --subclass--> t1 via two variant hops; the feature
  // branch (f4) dead-ends.
  auto r = run_script(
      "select * from graph ProductVtx (id = 'p4') ( --[]--> [ ] ){2} "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 1u);
}

TEST_F(ExecTest, RegexSelfLoopTerminates) {
  // t5 -> t5 self loop: + must terminate and return t5.
  auto r = run_script(
      "select * from graph TypeVtx (id = 't5') ( --subclass--> [ ] )+ "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 1u);
}

// ---- Figs. 11-12: subgraph results and seeding --------------------------------

TEST_F(ExecTest, Fig11SelectStepsIntoSubgraph) {
  auto all = run_script(
      "select * from graph OfferVtx() --product--> ProductVtx() "
      "into subgraph resultsG");
  // All four offers match; products p1 (x2), p2, p4.
  EXPECT_EQ(all.subgraph->num_vertices(), 4u + 3u);
  EXPECT_EQ(all.subgraph->num_edges(), 4u);

  auto ends = run_script(
      "select OfferVtx, ProductVtx from graph OfferVtx() --product--> "
      "ProductVtx() into subgraph resultsBE");
  // Vertices of the first and last step only — no edges (paper: "possibly
  // disconnected" subgraph).
  EXPECT_EQ(ends.subgraph->num_vertices(), 7u);
  EXPECT_EQ(ends.subgraph->num_edges(), 0u);
}

TEST_F(ExecTest, Fig12SeededQuery) {
  run_script(
      "select ProductVtx from graph PersonVtx(country = 'DE') "
      "<--reviewer-- ReviewVtx() --reviewFor--> ProductVtx() "
      "into subgraph deReviewed");
  // DE reviewer u2 reviewed p1 (r2) and p4 (r5).
  auto seeded = run_script(
      "select * from graph deReviewed.ProductVtx() --feature--> "
      "FeatureVtx() into table R");
  // p1 has 3 features, p4 has 1.
  EXPECT_EQ(seeded.table->num_rows(), 4u);

  // Seeding with a condition further restricts (Fig. 12's conditionsQ1).
  auto cond = run_script(
      "select * from graph deReviewed.ProductVtx(id = 'p4') --feature--> "
      "FeatureVtx() into table R2");
  EXPECT_EQ(cond.table->num_rows(), 1u);

  EXPECT_FALSE(run_expect_error(
                   "select * from graph nosuch.ProductVtx() --feature--> "
                   "FeatureVtx() into table R3")
                   .is_ok());
}

// ---- Fig. 13: full subgraph as a table ----------------------------------------

TEST_F(ExecTest, Fig13ResultsAsTable) {
  auto r = run_script(
      "select * from graph OfferVtx(price > 40) --product--> ProductVtx() "
      "into table resultsT");
  // o1, o2 -> p1. Columns: all Offers attrs + all Products attrs.
  ASSERT_EQ(r.table->num_rows(), 2u);
  EXPECT_EQ(r.table->num_columns(), 6u + 3u);
  // Prefixed, collision-free names.
  EXPECT_TRUE(r.table->schema().find("OfferVtx_id").has_value());
  EXPECT_TRUE(r.table->schema().find("ProductVtx_id").has_value());
  EXPECT_TRUE(r.table->schema().find("OfferVtx_price").has_value());
  // Values come from the matched entities.
  const auto products = column_strings(*r.table, "ProductVtx_id");
  EXPECT_EQ(products, (std::vector<std::string>{"p1", "p1"}));
}

// ---- Labels: set vs element-wise (Sec. II-B2) ----------------------------------

TEST_F(ExecTest, SetLabelMatchesPairsAcrossTheSet) {
  // def X over pr1's products {p1, p2}; the reference step may bind any
  // member of the culled set (Eq. 6/7).
  auto r = run_script(
      "select * from graph def X: ProductVtx(producer = 'pr1') "
      "--feature--> FeatureVtx() <--feature-- X into table R");
  // Pairs over {p1,p2} sharing a feature, one row per shared feature:
  // (p1,p1):f1,f2,f3  (p1,p2):f1,f2  (p2,p1):f1,f2  (p2,p2):f1,f2 -> 9.
  EXPECT_EQ(r.table->num_rows(), 9u);
}

TEST_F(ExecTest, ForeachLabelRequiresSameInstance) {
  auto r = run_script(
      "select * from graph foreach x: ProductVtx(producer = 'pr1') "
      "--feature--> FeatureVtx() <--feature-- x into table R");
  // Element-wise (Eq. 8): the same product at both ends.
  // p1: 3 features, p2: 2 features -> 5 rows.
  EXPECT_EQ(r.table->num_rows(), 5u);
}

TEST_F(ExecTest, SetLabelResultIsSupersetOfForeach) {
  // The paper: "the subgraph patterns matched by Eq. 6 are a superset of
  // those matched by Eq. 8".
  auto set_r = run_script(
      "select x2 from graph def x2: ProductVtx() --feature--> FeatureVtx() "
      "<--feature-- x2 into subgraph S1");
  auto each_r = run_script(
      "select x3 from graph foreach x3: ProductVtx() --feature--> "
      "FeatureVtx() <--feature-- x3 into subgraph S2");
  EXPECT_GE(set_r.subgraph->num_vertices(), each_r.subgraph->num_vertices());
}

TEST_F(ExecTest, ForeachCycleOnSelfLoop) {
  // Only t5 has a subclass self-loop.
  auto r = run_script(
      "select * from graph foreach t: TypeVtx() --subclass--> t "
      "into table R");
  ASSERT_EQ(r.table->num_rows(), 1u);
  EXPECT_EQ(r.table->value_at(0, 0).as_string(), "t5");
}

// ---- Cross-step conditions -----------------------------------------------------

TEST_F(ExecTest, ConditionReferencingLabeledStep) {
  auto r = run_script(
      "select * from graph def p: ProductVtx() --feature--> FeatureVtx() "
      "<--feature-- ProductVtx(id <> p.id) into table R");
  // Distinct product pairs sharing a feature, per shared feature:
  // (p1,p2)x2, (p2,p1)x2, (p1,p3)x1, (p3,p1)x1, (p3,p4)x1, (p4,p3)x1 -> 8.
  EXPECT_EQ(r.table->num_rows(), 8u);
}

// ---- Or-composition -------------------------------------------------------------

TEST_F(ExecTest, OrCompositionUnionsSubgraphs) {
  auto r = run_script(
      "select * from graph ProductVtx(id = 'p1') --feature--> FeatureVtx() "
      "or ProductVtx(id = 'p4') --feature--> FeatureVtx() "
      "into subgraph U");
  // p1 with f1,f2,f3 plus p4 with f4.
  EXPECT_EQ(r.subgraph->num_vertices(), 2u + 4u);
  EXPECT_EQ(r.subgraph->num_edges(), 4u);
}

TEST_F(ExecTest, OrCompositionConcatenatesTables) {
  auto r = run_script(
      "select ProductVtx.id from graph "
      "ProductVtx(id = 'p1') --feature--> FeatureVtx() "
      "or ProductVtx(id = 'p4') --feature--> FeatureVtx() "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 4u);
}

// ---- Edge attributes ---------------------------------------------------------

TEST_F(ExecTest, EdgeAttributeConditionAndSelection) {
  // The `feature` edge carries ProductFeatures attributes.
  auto r = run_script(
      "select * from graph ProductVtx() --feature(feature = 'f2')--> "
      "FeatureVtx() into table R");
  EXPECT_EQ(r.table->num_rows(), 2u);  // p1-f2, p2-f2

  auto sel = run_script(
      "select e from graph ProductVtx(id = 'p1') "
      "--def e: feature--> FeatureVtx() into table R2");
  // Selecting the edge step yields the assoc-table attributes.
  EXPECT_EQ(sel.table->num_rows(), 3u);
  EXPECT_TRUE(sel.table->schema().find("e_product").has_value());
}

// ---- Chaining graph -> table (the paper's standard pattern) --------------------

TEST_F(ExecTest, GraphToTableAggregationPipeline) {
  auto r = run_script(
      "select ProductVtx.id, OfferVtx.price from graph "
      "OfferVtx() --product--> ProductVtx() into table OffersByProduct\n"
      "select id, count(*) as n, avg(price) as mean from table "
      "OffersByProduct group by id order by mean desc");
  ASSERT_EQ(r.table->num_rows(), 3u);
  EXPECT_EQ(column_strings(*r.table, "id"),
            (std::vector<std::string>{"p1", "p2", "p4"}));
  EXPECT_EQ(r.table->value_at(0, 1).as_int64(), 2);
  EXPECT_DOUBLE_EQ(r.table->value_at(0, 2).as_double(), 47.5);
}

// ---- Ingest regenerates derived instances (Sec. II-A2) -------------------------

TEST_F(ExecTest, IngestRebuildsGraph) {
  // Write a CSV for two more products and ingest it.
  const std::string path = ::testing::TempDir() + "/gems_more_products.csv";
  {
    std::ofstream f(path);
    f << "p5,E,pr1\np6,F,pr2\n";
  }
  const std::size_t before =
      ctx_.graph.vertex_type(ctx_.graph.find_vertex_type("ProductVtx")
                                 .value())
          .num_vertices();
  auto r = run_script("ingest table Products '" + path + "'");
  EXPECT_NE(r.message.find("2 rows"), std::string::npos);
  const std::size_t after =
      ctx_.graph.vertex_type(ctx_.graph.find_vertex_type("ProductVtx")
                                 .value())
          .num_vertices();
  EXPECT_EQ(after, before + 2);
  // Derived producer edges exist for the new rows too.
  auto q = run_script(
      "select * from graph ProductVtx(id = 'p5') --producer--> "
      "ProducerVtx() into table R");
  EXPECT_EQ(q.table->num_rows(), 1u);
  std::remove(path.c_str());
}

// ---- Row cap ---------------------------------------------------------------

TEST_F(ExecTest, MaxResultRowsTruncates) {
  ctx_.max_result_rows = 2;
  auto r = run_script(
      "select * from graph ProductVtx() --feature--> FeatureVtx() "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 2u);
  EXPECT_TRUE(r.truncated);
}

// ---- Error paths ------------------------------------------------------------

TEST_F(ExecTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(run_expect_error("select * from graph NoVtx() --producer--> "
                                "ProducerVtx() into table R")
                   .is_ok());
  EXPECT_FALSE(run_expect_error("select nope.id from graph ProductVtx() "
                                "--producer--> ProducerVtx() into table R")
                   .is_ok());
  EXPECT_FALSE(run_expect_error("select * from table NoTable").is_ok());
  EXPECT_FALSE(
      run_expect_error("ingest table Products '/nonexistent/x.csv'")
          .is_ok());
  // Wrong-direction edge use.
  EXPECT_FALSE(run_expect_error("select * from graph ProducerVtx() "
                                "--producer--> ProductVtx() into table R")
                   .is_ok());
}

TEST_F(ExecTest, VariantStepIntoTableRejected) {
  EXPECT_FALSE(run_expect_error("select * from graph ProductVtx(id = 'p1') "
                                "<--[]-- [ ] into table R")
                   .is_ok());
}

// ---- Concurrent matchers over one shared graph (TSan target) ----------------
//
// Several query threads match over the same graph at once, as the net
// workers do for concurrent read-only scripts. Run under TSan
// this exercises the claim of DESIGN.md §5e that readers share no mutable
// matcher state; functionally every run must equal the single-thread
// result.
TEST_F(ExecTest, ConcurrentMatchersAgreeWithSerial) {
  // A 1500-vertex graph, so frontiers span many bitset words.
  run_script(
      "create table Nodes(id varchar(10), w integer)\n"
      "create table Links(src varchar(10), dst varchar(10))");
  std::string nodes, links;
  for (int i = 0; i < 1500; ++i) {
    nodes += "n" + std::to_string(i) + "," + std::to_string(i % 10) + "\n";
    links += "n" + std::to_string(i) + ",n" + std::to_string((i * 7 + 1) % 1500) + "\n";
    if (i % 3 == 0) {
      links +=
          "n" + std::to_string(i) + ",n" + std::to_string((i * 13 + 5) % 1500) + "\n";
    }
  }
  fill("Nodes", nodes);
  fill("Links", links);
  run_script(
      "create vertex NodeVtx(id) from table Nodes\n"
      "create edge link with vertices (NodeVtx as A, NodeVtx as B)\n"
      "  from table Links where Links.src = A.id and Links.dst = B.id");

  auto stmt = parse_script(
      "select * from graph NodeVtx(w < 8) --link--> NodeVtx() "
      "--link--> NodeVtx(w > 1) into table R");
  ASSERT_TRUE(stmt.is_ok());
  const auto& gq =
      std::get<graql::GraphQueryStmt>(stmt->statements[0]);
  auto resolver = [](const std::string&) -> Result<SubgraphPtr> {
    return not_found("none");
  };
  auto lowered = lower_graph_query(gq, ctx_.graph, resolver, {}, pool_);
  ASSERT_TRUE(lowered.is_ok()) << lowered.status().to_string();
  const ConstraintNetwork& net = lowered->networks[0];

  auto serial = match_network(net, ctx_.graph, pool_);
  ASSERT_TRUE(serial.is_ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        auto r = match_network(net, ctx_.graph, pool_);
        if (!r.is_ok() || !(r->domains == serial->domains) ||
            !(r->matched_edges == serial->matched_edges) ||
            r->stats.edge_traversals != serial->stats.edge_traversals) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gems::exec
