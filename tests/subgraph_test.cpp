// Unit tests for the Subgraph result container (paper Figs. 11-12) and a
// few analyzer negatives not covered elsewhere.
#include <gtest/gtest.h>

#include "exec/subgraph.hpp"
#include "graql/analyzer.hpp"
#include "graql/parser.hpp"

namespace gems::exec {
namespace {

/// Whether `g` holds the vertex or edge `ref`, read through the public
/// per-type membership sets.
bool contains(const Subgraph& g, graph::VertexRef ref) {
  const DynamicBitset* set = g.vertices(ref.type);
  return set != nullptr && ref.index < set->size() && set->test(ref.index);
}

bool contains(const Subgraph& g, graph::EdgeRef ref) {
  const DynamicBitset* set = g.edges(ref.type);
  return set != nullptr && ref.index < set->size() && set->test(ref.index);
}

TEST(SubgraphTest, MembershipAndCounts) {
  Subgraph g("g");
  g.vertices(0, 10).set(3);
  g.vertices(0, 10).set(7);
  g.vertices(2, 5).set(1);
  g.edges(1, 8).set(0);

  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(contains(g, graph::VertexRef{0, 3}));
  EXPECT_FALSE(contains(g, graph::VertexRef{0, 4}));
  EXPECT_FALSE(contains(g, graph::VertexRef{1, 3}));  // untouched type
  EXPECT_TRUE(contains(g, graph::EdgeRef{1, 0}));
  EXPECT_FALSE(contains(g, graph::EdgeRef{1, 5}));
  EXPECT_EQ(g.vertices(static_cast<graph::VertexTypeId>(9)), nullptr);
  EXPECT_EQ(g.summary(), "g: 3 vertices, 1 edges");
}

TEST(SubgraphTest, MergeUnionsPerType) {
  Subgraph a("a");
  a.vertices(0, 10).set(1);
  a.edges(0, 4).set(2);
  Subgraph b("b");
  b.vertices(0, 10).set(1);
  b.vertices(0, 10).set(9);
  b.vertices(1, 3).set(0);
  b.edges(0, 4).set(3);

  a.merge(b);
  EXPECT_EQ(a.num_vertices(), 3u);  // {0:1, 0:9, 1:0}
  EXPECT_EQ(a.num_edges(), 2u);
  EXPECT_TRUE(contains(a, graph::VertexRef{1, 0}));
  EXPECT_TRUE(contains(a, graph::EdgeRef{0, 3}));
}

TEST(SubgraphTest, OutOfRangeRefIsNotContained) {
  Subgraph g("g");
  g.vertices(0, 4).set(0);
  EXPECT_FALSE(contains(g, graph::VertexRef{0, 99}));
}

}  // namespace
}  // namespace gems::exec

namespace gems::graql {
namespace {

class AnalyzerNegativeTest : public ::testing::Test {
 protected:
  AnalyzerNegativeTest() {
    using storage::DataType;
    GEMS_CHECK(catalog_
                   .add_table("T", storage::Schema(
                                       {{"id", DataType::varchar(10)},
                                        {"w", DataType::int64()}}))
                   .is_ok());
    GEMS_CHECK(catalog_
                   .add_table("U", storage::Schema(
                                       {{"id", DataType::varchar(10)}}))
                   .is_ok());
    run_ok("create vertex TV(id) from table T");
    run_ok("create vertex UV(id) from table U");
    run_ok("create edge tu with vertices (TV, UV) where TV.id = UV.id");
  }

  void run_ok(const std::string& text) {
    auto stmt = parse_statement(text);
    ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
    auto s = analyze_statement(stmt.value(), catalog_);
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }

  Status run(const std::string& text) {
    auto stmt = parse_statement(text);
    if (!stmt.is_ok()) return stmt.status();
    return analyze_statement(stmt.value(), catalog_);
  }

  MetaCatalog catalog_;
};

TEST_F(AnalyzerNegativeTest, ConcreteEdgeInsideGroupWithWrongEndpoints) {
  // Inside the group, `tu` runs TV -> UV; starting the body at UV is a
  // direction error.
  EXPECT_EQ(run("select * from graph UV() ( --tu--> UV() )+ into subgraph "
                "g")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerNegativeTest, GroupBodyAdjacencyChecked) {
  // Body edge's target type mismatches the declared body vertex.
  EXPECT_EQ(run("select * from graph TV() ( --tu--> TV() )+ into subgraph "
                "g")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerNegativeTest, EdgeWithoutAttributesCannotBeFiltered) {
  EXPECT_EQ(run("select * from graph TV() --tu(w = 1)--> UV() into "
                "subgraph g")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerNegativeTest, SelectingAttributeOfAttributelessEdge) {
  EXPECT_EQ(run("select tu.w from graph TV() --tu--> UV() into table R")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerNegativeTest, LabelCannotShadowDeclaredType) {
  EXPECT_EQ(run("select * from graph def TV: UV() <--tu-- TV() into "
                "subgraph g")
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(AnalyzerNegativeTest, GraphQueryWithoutTargetsRejected) {
  // Parser requires at least one target, so this fails at parse.
  EXPECT_FALSE(run("select from graph TV() --tu--> UV() into table R")
                   .is_ok());
}

TEST_F(AnalyzerNegativeTest, IntoTableSchemaForLabeledWholeStep) {
  // Whole-step selection via alias renames the column prefix.
  run_ok("select x as thing from graph def x: TV() --tu--> UV() into "
         "table R1");
  const storage::Schema* schema = catalog_.find_table("R1");
  ASSERT_NE(schema, nullptr);
  EXPECT_TRUE(schema->find("thing_id").has_value());
  EXPECT_TRUE(schema->find("thing_w").has_value());
}

}  // namespace
}  // namespace gems::graql
