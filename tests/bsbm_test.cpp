// Tests for the Berlin benchmark substrate: generator determinism and
// ratios, CSV round-trip through `ingest`, and the full BI query mix.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "graql/parser.hpp"
#include "plan/schedule.hpp"
#include "relational_oracle.hpp"
#include "server/database.hpp"

namespace gems::bsbm {
namespace {

using storage::Value;

TEST(GeneratorTest, DerivedCountsFollowRatios) {
  const GeneratorConfig c = GeneratorConfig::derive(1000);
  EXPECT_EQ(c.num_products, 1000u);
  EXPECT_EQ(c.num_producers, 40u);
  EXPECT_EQ(c.num_vendors, 50u);
  EXPECT_EQ(c.num_persons, 100u);
  EXPECT_GT(c.num_features, 100u);
}

TEST(GeneratorTest, PopulatesAllTables) {
  auto db = make_populated_database(GeneratorConfig::derive(120, 9));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  EXPECT_EQ((*(*db)->table("Products"))->num_rows(), 120u);
  EXPECT_GT((*(*db)->table("Offers"))->num_rows(), 120u);
  EXPECT_GT((*(*db)->table("Reviews"))->num_rows(), 0u);
  EXPECT_GT((*(*db)->table("ProductFeatures"))->num_rows(), 120u);
  // Derived graph materialized.
  const auto& g = (*db)->graph();
  EXPECT_EQ(g.vertex_type(g.find_vertex_type("ProductVtx").value())
                .num_vertices(),
            120u);
  EXPECT_EQ(g.edge_type(g.find_edge_type("producer").value()).num_edges(),
            120u);
  // Many-to-one country vertices collapse to the country vocabulary.
  EXPECT_LE(g.vertex_type(g.find_vertex_type("ProducerCountry").value())
                .num_vertices(),
            countries().size());
}

TEST(GeneratorTest, DeterministicAcrossRuns) {
  auto a = make_populated_database(GeneratorConfig::derive(100, 77));
  auto b = make_populated_database(GeneratorConfig::derive(100, 77));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  for (const char* table : {"Products", "Offers", "Reviews", "Persons"}) {
    auto ta = (*a)->table(table).value();
    auto tb = (*b)->table(table).value();
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << table;
    // Spot-check full contents of a row stripe.
    for (storage::RowIndex r = 0; r < ta->num_rows();
         r += 1 + ta->num_rows() / 13) {
      for (storage::ColumnIndex c = 0; c < ta->num_columns(); ++c) {
        EXPECT_TRUE(ta->value_at(r, c) == tb->value_at(r, c))
            << table << " row " << r << " col " << c;
      }
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = make_populated_database(GeneratorConfig::derive(100, 1));
  auto b = make_populated_database(GeneratorConfig::derive(100, 2));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  auto ta = (*a)->table("Offers").value();
  auto tb = (*b)->table("Offers").value();
  EXPECT_NE(ta->num_rows(), tb->num_rows());
}

TEST(GeneratorTest, CsvFilesRoundTripThroughIngest) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "gems_bsbm_csv").string();
  fs::create_directories(dir);

  auto source = make_populated_database(GeneratorConfig::derive(50, 4));
  ASSERT_TRUE(source.is_ok());
  ASSERT_TRUE(write_csv_files(**source, dir).is_ok());

  // Fresh database, loaded via the paper's `ingest` command.
  server::DatabaseOptions options;
  options.data_dir = dir;
  server::Database db(options);
  ASSERT_TRUE(db.run_script(full_ddl()).is_ok());
  std::string ingest_script;
  for (const auto& name : db.tables().names()) {
    ingest_script += "ingest table " + name + " '" + name +
                     ".csv' with header\n";
  }
  auto r = db.run_script(ingest_script);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  for (const auto& name : db.tables().names()) {
    EXPECT_EQ((*db.table(name))->num_rows(),
              (*(*source)->table(name))->num_rows())
        << name;
  }
  // Derived graph identical sizes.
  EXPECT_EQ(db.graph().total_vertices(), (*source)->graph().total_vertices());
  EXPECT_EQ(db.graph().total_edges(), (*source)->graph().total_edges());
  fs::remove_all(dir);
}

// ---- The query mix ------------------------------------------------------------

class QueryMixTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = make_populated_database(GeneratorConfig::derive(200, 31));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    db_ = std::move(db).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static relational::ParamMap default_params() {
    relational::ParamMap params;
    params.emplace("Country1", Value::varchar("US"));
    params.emplace("Country2", Value::varchar("DE"));
    params.emplace("Product1", Value::varchar("p0"));
    params.emplace("Type1", Value::varchar("t1"));
    params.emplace("Producer1", Value::varchar("pr0"));
    params.emplace("Date1",
                   Value::date(storage::civil_to_days(2008, 6, 15)));
    return params;
  }

  static server::Database* db_;
};

server::Database* QueryMixTest::db_ = nullptr;

TEST_F(QueryMixTest, AllQueriesRunGreen) {
  for (const auto& q : all_queries()) {
    auto r = db_->run_script(q.text, default_params());
    ASSERT_TRUE(r.is_ok()) << q.name << ": " << r.status().to_string();
    ASSERT_FALSE(r->empty()) << q.name;
    EXPECT_NE(r->back().table, nullptr) << q.name;
  }
}

TEST_F(QueryMixTest, Q1ShapesMatchThePaper) {
  auto r = db_->run_script(berlin_q1(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& final_table = *r->back().table;
  EXPECT_LE(final_table.num_rows(), 10u);  // top 10
  ASSERT_EQ(final_table.num_columns(), 2u);
  // Counts are non-increasing (order by groupCount desc).
  for (storage::RowIndex i = 1; i < final_table.num_rows(); ++i) {
    EXPECT_GE(final_table.value_at(i - 1, 1).as_int64(),
              final_table.value_at(i, 1).as_int64());
  }
}

TEST_F(QueryMixTest, Q2FindsSimilarProducts) {
  relational::ParamMap params = default_params();
  auto r = db_->run_script(berlin_q2(), params);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& final_table = *r->back().table;
  EXPECT_LE(final_table.num_rows(), 10u);
  // %Product1% itself is excluded by the id <> condition.
  for (storage::RowIndex i = 0; i < final_table.num_rows(); ++i) {
    EXPECT_NE(final_table.value_at(i, 0).as_string(), "p0");
  }
}

TEST_F(QueryMixTest, Q4ExportPairsAreCrossCountry) {
  auto r = db_->run_script(berlin_q4(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const auto& t = *r->back().table;
  ASSERT_GT(t.num_rows(), 0u);
  for (storage::RowIndex i = 0; i < t.num_rows(); ++i) {
    EXPECT_NE(t.value_at(i, 0).as_string(), t.value_at(i, 1).as_string());
    // Fig. 5 collapse: each (exporter, importer) pair appears once in the
    // graph, so every flow count is exactly 1.
    EXPECT_EQ(t.value_at(i, 2).as_int64(), 1);
  }
}

TEST_F(QueryMixTest, Q9RegexCoversDescendantTypes) {
  // Type t1's subtree: children are t(1*4+1..4) etc. The query must find
  // at least the products directly typed t1.
  auto direct = db_->run_statement(
      "select ProductVtx.id from graph TypeVtx (id = 't1') <--type-- "
      "ProductVtx () into table Direct");
  ASSERT_TRUE(direct.is_ok());
  auto r = db_->run_script(berlin_q9(), default_params());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GE(r->back().table->num_rows(),
            relational::distinct(*direct->table, "d")->num_rows());
}

TEST_F(QueryMixTest, QueryMixInvariantAcrossExecutionModes) {
  // The whole BI mix must return identical final tables from
  // Database::run_script (planner-ordered constraints, a pinned epoch, the
  // overlay commit) and from a lexical-order (no planner) run of the same
  // script on a copy of the same state — execution strategy is
  // performance-only (Sec. III-B).
  auto render = [](const storage::Table& t) {
    std::string out;
    for (storage::RowIndex r = 0; r < t.num_rows(); ++r) {
      for (storage::ColumnIndex c = 0; c < t.num_columns(); ++c) {
        out += t.value_at(r, c).to_string();
        out += '|';
      }
      out += '\n';
    }
    return out;
  };

  auto db = make_populated_database(GeneratorConfig::derive(150, 31));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  for (const auto& q : all_queries()) {
    auto script = graql::parse_script(q.text);
    ASSERT_TRUE(script.is_ok())
        << q.name << ": " << script.status().to_string();
    exec::ExecContext lexical = (*db)->pin_epoch().ctx();
    lexical.planner = nullptr;
    exec::CatalogOverlay overlay;
    auto serial = plan::run_scheduled(*script, plan::build_schedule(*script),
                                      lexical, default_params(), overlay);
    ASSERT_TRUE(serial.is_ok())
        << q.name << ": " << serial.status().to_string();
    auto r = (*db)->run_script(q.text, default_params());
    ASSERT_TRUE(r.is_ok()) << q.name << ": " << r.status().to_string();
    EXPECT_EQ(render(*r->back().table), render(*serial->back().table))
        << q.name;
  }
}

TEST_F(QueryMixTest, QueriesAreDeterministic) {
  auto r1 = db_->run_script(berlin_q5(), default_params());
  auto r2 = db_->run_script(berlin_q5(), default_params());
  ASSERT_TRUE(r1.is_ok() && r2.is_ok());
  const auto& a = *r1->back().table;
  const auto& b = *r2->back().table;
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (storage::RowIndex i = 0; i < a.num_rows(); ++i) {
    for (storage::ColumnIndex c = 0; c < a.num_columns(); ++c) {
      EXPECT_TRUE(a.value_at(i, c) == b.value_at(i, c));
    }
  }
}

}  // namespace
}  // namespace gems::bsbm
