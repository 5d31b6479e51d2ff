// Tests for statistics, the path planner (Sec. III-B) and the
// multi-statement scheduler (Sec. III-B1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bsbm/generator.hpp"
#include "bsbm/schema.hpp"
#include "exec/lowering.hpp"
#include "graql/parser.hpp"
#include "plan/planner.hpp"
#include "plan/schedule.hpp"
#include "storage/csv.hpp"

namespace gems::plan {
namespace {

using exec::ConstraintNetwork;
using exec::LoweredQuery;

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(200, 7));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    db_ = std::move(db).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  LoweredQuery lower(const std::string& text,
                     const relational::ParamMap& params = {}) {
    auto stmt = graql::parse_statement(text);
    GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
    const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
    auto resolver = [](const std::string& name) -> Result<exec::SubgraphPtr> {
      return not_found("no subgraphs in this test: " + name);
    };
    auto lowered = exec::lower_graph_query(q, db_->graph(), resolver, params,
                                           db_->pool());
    GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
    return std::move(lowered).value();
  }

  static server::Database* db_;
};

server::Database* PlanTest::db_ = nullptr;

// ---- GraphStats ----------------------------------------------------------

TEST_F(PlanTest, StatsMatchGraph) {
  const GraphStats stats = GraphStats::collect(db_->graph());
  ASSERT_EQ(stats.vertex_counts.size(), db_->graph().num_vertex_types());
  for (graph::VertexTypeId t = 0; t < db_->graph().num_vertex_types(); ++t) {
    EXPECT_EQ(stats.vertices_of(t),
              db_->graph().vertex_type(t).num_vertices());
  }
  for (graph::EdgeTypeId e = 0; e < db_->graph().num_edge_types(); ++e) {
    const auto& et = db_->graph().edge_type(e);
    EXPECT_EQ(stats.edge_stats[e].num_edges, et.num_edges());
    if (et.num_edges() > 0) {
      EXPECT_GT(stats.edge_stats[e].degrees.avg_out, 0.0);
      EXPECT_GE(stats.edge_stats[e].degrees.max_out,
                static_cast<std::uint32_t>(
                    stats.edge_stats[e].degrees.avg_out));
    }
  }
}

// ---- Selectivity / cardinality -------------------------------------------

TEST_F(PlanTest, SelectivityReflectsConditions) {
  auto narrow = lower(
      "select * from graph ProductVtx(id = 'p0') --producer--> "
      "ProducerVtx() into subgraph g");
  auto wide = lower(
      "select * from graph ProductVtx() --producer--> ProducerVtx() into "
      "subgraph g");
  const double sel_narrow = estimate_selectivity(
      narrow.networks[0], db_->graph(), db_->pool(), 0);
  const double sel_wide =
      estimate_selectivity(wide.networks[0], db_->graph(), db_->pool(), 0);
  EXPECT_LT(sel_narrow, 0.2);
  EXPECT_DOUBLE_EQ(sel_wide, 1.0);
}

TEST_F(PlanTest, CardinalityScalesWithExtent) {
  auto q = lower(
      "select * from graph OfferVtx() --product--> ProductVtx() into "
      "subgraph g");
  const GraphStats stats = GraphStats::collect(db_->graph());
  const double offers = estimate_cardinality(q.networks[0], db_->graph(),
                                             db_->pool(), stats, 0);
  const double products = estimate_cardinality(q.networks[0], db_->graph(),
                                               db_->pool(), stats, 1);
  // The generator makes ~5 offers per product.
  EXPECT_GT(offers, products);
}

// ---- Planner ---------------------------------------------------------------

TEST_F(PlanTest, PlannerPivotsAtSelectiveStep) {
  // The selective condition sits on the LAST step; a lexical plan starts
  // at step 0, the planner must pivot at the last variable.
  auto q = lower(
      "select * from graph PersonVtx() <--reviewer-- ReviewVtx() "
      "--reviewFor--> ProductVtx(id = 'p0') into subgraph g");
  const GraphStats stats = GraphStats::collect(db_->graph());
  const PathPlan planned =
      plan_network(q.networks[0], db_->graph(), db_->pool(), stats);
  EXPECT_EQ(planned.root_var, 2);
  // BFS order touches the constraint adjacent to the pivot first.
  ASSERT_EQ(planned.constraint_order.size(), 2u);
  EXPECT_EQ(planned.constraint_order[0], 1);  // reviewFor constraint

  const PathPlan lexical = lexical_plan(q.networks[0]);
  EXPECT_EQ(lexical.root_var, 0);
  EXPECT_EQ(lexical.constraint_order, (std::vector<int>{0, 1}));
}

TEST_F(PlanTest, PlanCoversAllConstraints) {
  auto q = lower(
      "select * from graph PersonVtx(country = 'US') <--reviewer-- "
      "ReviewVtx() --reviewFor--> foreach y: ProductVtx() --producer--> "
      "ProducerVtx() and (y --type--> TypeVtx()) into subgraph g");
  const GraphStats stats = GraphStats::collect(db_->graph());
  const PathPlan plan =
      plan_network(q.networks[0], db_->graph(), db_->pool(), stats);
  const auto& net = q.networks[0];
  EXPECT_EQ(plan.constraint_order.size(),
            net.edges.size() + net.groups.size() + net.set_eqs.size());
  // Every constraint appears exactly once.
  auto sorted = plan.constraint_order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int>(i));
  }
}

// ---- Statement IO / schedule -------------------------------------------------

TEST(ScheduleTest, AnalyzeIoClassifiesStatements) {
  auto script = graql::parse_script(
      "create table T(id varchar(10))\n"
      "ingest table T 'x.csv'\n"
      "select * from graph A() --e--> B() into table R\n"
      "select id from table R into table S");
  ASSERT_TRUE(script.is_ok());
  const auto io0 = analyze_io(script->statements[0]);
  EXPECT_TRUE(io0.barrier);
  EXPECT_EQ(io0.writes, std::vector<std::string>{"T"});
  const auto io2 = analyze_io(script->statements[2]);
  EXPECT_FALSE(io2.barrier);
  EXPECT_EQ(io2.reads, (std::vector<std::string>{"A", "e", "B"}));
  EXPECT_EQ(io2.writes, std::vector<std::string>{"R"});
  const auto io3 = analyze_io(script->statements[3]);
  EXPECT_EQ(io3.reads, std::vector<std::string>{"R"});
}

TEST(ScheduleTest, IndependentQueriesShareALevel) {
  auto script = graql::parse_script(
      "select * from graph A() --e--> B() into table R1\n"
      "select * from graph C() --f--> D() into table R2\n"
      "select id from table R1 into table R3");
  ASSERT_TRUE(script.is_ok());
  const Schedule s = build_schedule(*script);
  ASSERT_EQ(s.levels.size(), 2u);
  EXPECT_EQ(s.levels[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.levels[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(s.max_width(), 2u);
}

TEST(ScheduleTest, BarriersSerialize) {
  auto script = graql::parse_script(
      "select * from graph A() --e--> B() into table R1\n"
      "create table T(id varchar(10))\n"
      "select * from graph A() --e--> B() into table R2");
  ASSERT_TRUE(script.is_ok());
  const Schedule s = build_schedule(*script);
  ASSERT_EQ(s.levels.size(), 3u);
  EXPECT_EQ(s.max_width(), 1u);
}

TEST(ScheduleTest, WawAndWarConflictsOrder) {
  auto script = graql::parse_script(
      "select * from graph A() --e--> B() into table R\n"
      "select * from graph C() --f--> D() into table R\n"  // WAW
      "select id from table R into table S");
  ASSERT_TRUE(script.is_ok());
  const Schedule s = build_schedule(*script);
  EXPECT_EQ(s.levels.size(), 3u);
}

/// Every result table of a script, rows sorted: plans may enumerate
/// matches in different orders.
std::string render(const std::vector<exec::StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += r.message + "\n";
    if (r.table == nullptr) continue;
    std::vector<std::string> rows;
    for (storage::RowIndex i = 0; i < r.table->num_rows(); ++i) {
      std::string row;
      for (const auto& v : r.table->row(i)) row += v.to_string() + "|";
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& row : rows) out += row + "\n";
  }
  return out;
}

TEST_F(PlanTest, ParallelScheduleMatchesSerialExecution) {
  // Two independent queries + a dependent aggregation: the schedule puts
  // the two in one level. Database::run_script runs that level with the
  // planner; the reference runs in lexical order without it, on a copy of
  // the same state. Either way the level's statements run in script
  // order on the calling thread.
  const std::string script_text =
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table PUS\n"
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'DE') into table PDE\n"
      "select count(*) as n from table PUS";
  auto script = graql::parse_script(script_text);
  ASSERT_TRUE(script.is_ok());
  const Schedule schedule = build_schedule(*script);
  EXPECT_EQ(schedule.levels.size(), 2u);
  EXPECT_EQ(schedule.levels[0].size(), 2u);

  exec::ExecContext lexical = db_->pin_epoch().ctx();
  lexical.planner = nullptr;
  exec::CatalogOverlay overlay;
  auto serial = run_scheduled(*script, schedule, lexical, {}, overlay);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  EXPECT_EQ(overlay.tables.size(), 2u);
  EXPECT_FALSE(lexical.tables.contains("PUS"));  // staged, not committed

  auto parallel = db_->run_script(script_text);
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  ASSERT_EQ(parallel->size(), 3u);
  EXPECT_EQ(render(*serial), render(*parallel));
}

TEST_F(PlanTest, OutputsToOneFileRunInScriptOrder) {
  // Both outputs read results of the first level; without a write set on
  // the file they would share the second level and race on the file.
  const std::string path = ::testing::TempDir() + "/gems_plan_output.csv";
  const std::string script_text =
      "select id, country from table Producers where country = 'US' "
      "into table OutUS\n"
      "select id, country from table Producers where country = 'DE' "
      "into table OutDE\n"
      "output table OutUS '" + path + "'\n"
      "output table OutDE '" + path + "'";
  auto script = graql::parse_script(script_text);
  ASSERT_TRUE(script.is_ok());
  const Schedule schedule = build_schedule(*script);
  ASSERT_EQ(schedule.levels.size(), 3u);
  EXPECT_EQ(schedule.levels[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(schedule.levels[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(schedule.levels[2], (std::vector<std::size_t>{3}));

  auto r = db_->run_script(script_text);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  std::ostringstream expected;
  storage::write_csv(*(*r)[1].table, expected);
  std::ifstream in(path);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected.str());
  EXPECT_NE(expected.str(), "");
  std::remove(path.c_str());
}

TEST_F(PlanTest, LevelStopsAtItsFirstFailure) {
  // Two independent outputs share one level. The first names a missing
  // directory, which the analysis accepts and the write refuses; the
  // second statement of the level must then not run.
  const std::string bad = ::testing::TempDir() + "/no_such_dir/a.csv";
  const std::string good = ::testing::TempDir() + "/gems_plan_level_stop.csv";
  std::remove(good.c_str());
  const std::string script_text = "output table Producers '" + bad + "'\n" +
                                  "output table Producers '" + good + "'";
  auto script = graql::parse_script(script_text);
  ASSERT_TRUE(script.is_ok());
  const Schedule schedule = build_schedule(*script);
  ASSERT_EQ(schedule.levels.size(), 1u);
  EXPECT_EQ(schedule.levels[0], (std::vector<std::size_t>{0, 1}));

  auto r = db_->run_script(script_text);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_string().find(bad), std::string::npos)
      << r.status().to_string();
  EXPECT_FALSE(std::ifstream(good).good()) << good << " was written";
  std::remove(good.c_str());
}

}  // namespace
}  // namespace gems::plan
