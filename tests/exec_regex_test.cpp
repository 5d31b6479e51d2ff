// Focused tests for regex-path internals: group interior marking in
// subgraph results, hop edge conditions, Eq. 12 (labels on type-matching
// steps), and closures against a naive reference BFS.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "exec/executor.hpp"
#include "graql/parser.hpp"
#include "storage/csv.hpp"

namespace gems::exec {
namespace {

using graql::parse_script;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

/// A small two-type graph with a layered structure:
///   a0 -> b0 -> a1 -> b1 -> a2   (alternating `ab`/`ba` edges)
///   plus a dead-end branch b0 -> a9 with no continuation,
///   plus weighted `hop` edges among A for condition tests.
class RegexExecTest : public ::testing::Test {
 protected:
  RegexExecTest() {
    ctx_.pool = &pool_;
    run(R"(
      create table A(id varchar(10))
      create table B(id varchar(10))
      create table AB(s varchar(10), d varchar(10))
      create table BA(s varchar(10), d varchar(10))
      create table Hop(s varchar(10), d varchar(10), w integer)
    )");
    fill("A", "a0\na1\na2\na9\n");
    fill("B", "b0\nb1\n");
    fill("AB", "a0,b0\na1,b1\n");
    fill("BA", "b0,a1\nb1,a2\nb0,a9\n");
    fill("Hop", "a0,a1,1\na1,a2,5\na2,a0,1\na0,a9,9\n");
    run(R"(
      create vertex AV(id) from table A
      create vertex BV(id) from table B
      create edge ab with vertices (AV, BV) from table AB
        where AB.s = AV.id and AB.d = BV.id
      create edge ba with vertices (BV, AV) from table BA
        where BA.s = BV.id and BA.d = AV.id
      create edge hop with vertices (AV as X, AV as Y) from table Hop
        where Hop.s = X.id and Hop.d = Y.id
    )");
  }

  void fill(const std::string& table, const std::string& csv) {
    auto t = ctx_.tables.find(table);
    ASSERT_TRUE(t.is_ok());
    ASSERT_TRUE(storage::ingest_csv_text(**t, csv).is_ok());
  }

  StatementResult run(const std::string& text) {
    auto script = parse_script(text);
    GEMS_CHECK_MSG(script.is_ok(), script.status().to_string().c_str());
    StatementResult last;
    for (const auto& stmt : script->statements) {
      auto r = execute_statement(stmt, ctx_);
      GEMS_CHECK_MSG(r.is_ok(),
                     (graql::to_string(stmt) + "\n" +
                      r.status().to_string())
                         .c_str());
      last = std::move(r).value();
    }
    return last;
  }

  StringPool pool_;
  ExecContext ctx_;
};

// ---- Group interiors in subgraph output ----------------------------------

TEST_F(RegexExecTest, GroupInteriorVerticesAndEdgesAreMarked) {
  // a0 ( -ab-> BV -ba-> AV )+ : satisfying paths a0->b0->a1(->b1->a2).
  // The b0 -> a9 branch dead-ends (a9 has no outgoing ab), but a9 IS a
  // valid group endpoint (the + closure may stop there).
  auto r = run(
      "select * from graph AV(id = 'a0') ( --ab--> BV() --ba--> AV() )+ "
      "into subgraph g");
  ASSERT_EQ(r.kind, StatementResult::Kind::kSubgraph);
  const auto& g = ctx_.graph;
  const auto av = g.find_vertex_type("AV").value();
  const auto bv = g.find_vertex_type("BV").value();
  const DynamicBitset* a_bits = r.subgraph->vertices(av);
  const DynamicBitset* b_bits = r.subgraph->vertices(bv);
  ASSERT_NE(a_bits, nullptr);
  ASSERT_NE(b_bits, nullptr);
  // All of a0,a1,a2,a9 are on some satisfying path; both b vertices are
  // interior.
  EXPECT_EQ(a_bits->count(), 4u);
  EXPECT_EQ(b_bits->count(), 2u);
  // Interior edges: a0-b0, a1-b1 (ab) and b0-a1, b1-a2, b0-a9 (ba).
  EXPECT_EQ(r.subgraph->num_edges(), 5u);
}

TEST_F(RegexExecTest, GroupInteriorCulledByEndCondition) {
  // Force the closure to end at a2: the a9 dead branch must disappear
  // from the marked interior.
  auto r = run(
      "select * from graph AV(id = 'a0') ( --ab--> BV() --ba--> AV() )+ "
      "--hop--> AV(id = 'a0') into subgraph g");
  // Closure ends must have a hop edge to a0: only a2 qualifies
  // (a2 -hop-> a0). Path: a0 ->b0->a1->b1->a2 -hop-> a0.
  const auto av = ctx_.graph.find_vertex_type("AV").value();
  const DynamicBitset* a_bits = r.subgraph->vertices(av);
  ASSERT_NE(a_bits, nullptr);
  EXPECT_EQ(a_bits->count(), 3u);  // a0, a1, a2 — a9 culled
  const auto bv = ctx_.graph.find_vertex_type("BV").value();
  EXPECT_EQ(r.subgraph->vertices(bv)->count(), 2u);
}

// ---- Hop edge conditions ------------------------------------------------------

TEST_F(RegexExecTest, HopEdgeConditionsFilterTraversal) {
  // hop edges with w <= 1: a0->a1, a2->a0. From a0: + closure reaches a1
  // only (a1's outgoing hop has w=5).
  auto r = run(
      "select * from graph AV(id = 'a0') ( --hop(w <= 1)--> AV() )+ "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 1u);

  auto unrestricted = run(
      "select * from graph AV(id = 'a0') ( --hop--> AV() )+ into table R");
  // Unrestricted: a1, a2, a9, a0 (cycle back) reachable.
  EXPECT_EQ(unrestricted.table->num_rows(), 4u);
}

TEST_F(RegexExecTest, HopEdgeConditionRespectedBackwards) {
  // Backward culling must apply the same edge filter: ends at a2 via
  // cheap hops only — impossible (a1->a2 costs 5), so empty.
  auto r = run(
      "select * from graph AV(id = 'a0') ( --hop(w <= 1)--> AV() ){2} "
      "into table R");
  EXPECT_EQ(r.table->num_rows(), 0u);
}

// ---- Eq. 12: labels on type-matching steps -------------------------------------

TEST_F(RegexExecTest, Eq12StructuralQueryWithSetLabel) {
  // def X: [ ] --[]--> X : any vertex with an edge to a vertex of a type
  // in the same culled set. The label binds per type at matching time.
  auto r = run(
      "select X from graph def X: [ ] --[]--> X into subgraph g");
  // Vertex-typed analysis: edges AV->BV (ab), BV->AV (ba), AV->AV (hop).
  // The hop edges alone satisfy same-type matching for AV; the mutual
  // set-intersection keeps AV vertices with hop edges into the set and
  // BV vertices are excluded (no BV->BV edge type).
  const auto av = ctx_.graph.find_vertex_type("AV").value();
  const auto bv = ctx_.graph.find_vertex_type("BV").value();
  const DynamicBitset* a_bits = r.subgraph->vertices(av);
  ASSERT_NE(a_bits, nullptr);
  EXPECT_GT(a_bits->count(), 0u);
  const DynamicBitset* b_bits = r.subgraph->vertices(bv);
  if (b_bits != nullptr) {
    EXPECT_EQ(b_bits->count(), 0u);
  }
}

TEST_F(RegexExecTest, Eq12ForeachCycleOnTypeMatching) {
  // foreach t: [ ] --[]--> t : an actual self-loop; none exists here.
  auto r = run(
      "select t from graph foreach t: [ ] --[]--> t into subgraph g");
  EXPECT_EQ(r.subgraph->num_vertices(), 0u);
}

// ---- Closure vs naive reference -------------------------------------------------

TEST_F(RegexExecTest, PlusClosureMatchesNaiveBfs) {
  // Reference: naive BFS over the hop edge type from each start vertex.
  const auto& g = ctx_.graph;
  const auto av = g.find_vertex_type("AV").value();
  const auto& et = g.edge_type(g.find_edge_type("hop").value());
  const std::size_t n = g.vertex_type(av).num_vertices();

  for (graph::VertexIndex start = 0; start < n; ++start) {
    std::set<graph::VertexIndex> reach;
    std::vector<graph::VertexIndex> frontier{start};
    while (!frontier.empty()) {
      std::vector<graph::VertexIndex> next;
      for (const auto v : frontier) {
        et.forward().for_each_part(v, [&](const graph::AdjacencyPart& part) {
          for (std::size_t i = 0; i < part.size(); ++i) {
            const graph::VertexIndex u = part.neighbor(i);
            if (reach.insert(u).second) next.push_back(u);
          }
        });
      }
      frontier = std::move(next);
    }
    const std::string key = g.vertex_type(av).key_string(start);
    auto r = run("select * from graph AV(id = '" + key +
                 "') ( --hop--> AV() )+ into table R");
    EXPECT_EQ(r.table->num_rows(), reach.size()) << "start " << key;
  }
}

}  // namespace
}  // namespace gems::exec
