// Cross-layer integration tests: the `output` statement, the
// analyzer↔executor schema-agreement invariant, scripted end-to-end
// pipelines, and error-context reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "server/database.hpp"

namespace gems::server {
namespace {

using storage::Value;

// ---- output table -----------------------------------------------------------

TEST(OutputStmtTest, WritesCsvReadableByIngest) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "gems_output_test").string();
  fs::create_directories(dir);

  DatabaseOptions options;
  options.data_dir = dir;
  Database db(options);
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  ASSERT_TRUE(
      bsbm::generate(db, bsbm::GeneratorConfig::derive(40, 6)).is_ok());

  // Query into a table, output it, re-ingest into a fresh table.
  auto r = db.run_script(R"(
    select ProductVtx.id as product, OfferVtx.price as price from graph
      OfferVtx() --product--> ProductVtx()
    into table Exported

    output table Exported 'exported.csv'

    create table Reimported(product varchar(10), price float)
    ingest table Reimported 'exported.csv' with header
  )");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  auto exported = db.table("Exported");
  auto reimported = db.table("Reimported");
  ASSERT_TRUE(exported.is_ok() && reimported.is_ok());
  ASSERT_EQ((*reimported)->num_rows(), (*exported)->num_rows());
  for (storage::RowIndex i = 0; i < (*exported)->num_rows(); ++i) {
    EXPECT_TRUE((*exported)->value_at(i, 0) == (*reimported)->value_at(i, 0));
  }
  fs::remove_all(dir);
}

TEST(OutputStmtTest, StaticChecks) {
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::table_ddl() + bsbm::vertex_ddl()).is_ok());
  EXPECT_EQ(db.run_script("output table NoSuch 'x.csv'").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      db.run_script("output table ProductVtx 'x.csv'").status().code(),
      StatusCode::kTypeError);
}

TEST(OutputStmtTest, IrAndPrinterRoundTrip) {
  auto stmt = graql::parse_statement("output table T1 'out/data.csv'");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  EXPECT_EQ(graql::to_string(stmt.value()),
            "output table T1 'out/data.csv'");
  graql::Script script;
  script.statements.push_back(std::move(stmt).value());
  auto decoded = graql::decode_script(graql::encode_script(script));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(graql::to_string(decoded.value()), graql::to_string(script));
}

// ---- Analyzer <-> executor schema agreement -----------------------------------
// The static analyzer predicts every `into table` schema without data; the
// executor materializes the real one. They must agree exactly, or chained
// statements type-check against wrong schemas.

constexpr const char* kAttributedEdge =
    "select * from graph ProductVtx() --feature--> FeatureVtx() into table "
    "R0";
constexpr const char* kRepeatedVertexStep =
    "select * from graph ProductVtx() --producer--> ProducerVtx() "
    "<--producer-- ProductVtx() into table R1";
constexpr const char* kRepeatedEdge =
    "select * from graph def X: ProductVtx() --feature--> FeatureVtx() "
    "<--feature-- X into table R2";
constexpr const char* kRegexGroup =
    "select * from graph TypeVtx() ( --subclass--> TypeVtx() )+ into table "
    "R3";
constexpr const char* kSharedOrStep =
    "select * from graph ProductVtx() --feature--> FeatureVtx() or "
    "ProductVtx() --type--> TypeVtx() into table R4";
constexpr const char* kRepeatedOfferStep =
    "select * from graph OfferVtx() --product--> ProductVtx() <--product-- "
    "OfferVtx() into table R5";

class SchemaAgreementTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(120, 19));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    db_ = std::move(db).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* SchemaAgreementTest::db_ = nullptr;

TEST_P(SchemaAgreementTest, PredictedSchemaEqualsMaterialized) {
  const std::string query = GetParam();
  relational::ParamMap params;
  params.emplace("Product1", Value::varchar("p0"));

  // Analyzer prediction.
  auto script = graql::parse_script(query);
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  graql::MetaCatalog meta = db_->meta_catalog();
  ASSERT_TRUE(graql::analyze_script(*script, meta, &params).is_ok());

  // Execution.
  auto results = db_->run_script(query, params);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();

  // Compare for each statement that produced a named table.
  for (const auto& r : results.value()) {
    if (r.into != graql::IntoKind::kTable || r.table == nullptr) continue;
    const storage::Schema* predicted = meta.find_table(r.into_name);
    ASSERT_NE(predicted, nullptr) << r.into_name;
    ASSERT_EQ(predicted->num_columns(), r.table->schema().num_columns())
        << r.into_name << ": predicted " << predicted->to_string()
        << " vs materialized " << r.table->schema().to_string();
    for (storage::ColumnIndex c = 0; c < predicted->num_columns(); ++c) {
      EXPECT_EQ(predicted->column(c).name,
                r.table->schema().column(c).name)
          << r.into_name << " col " << c;
      // The whole type, varchar width included.
      EXPECT_EQ(predicted->column(c).type, r.table->schema().column(c).type)
          << r.into_name << " col " << c << ": predicted "
          << predicted->column(c).type.to_string() << " vs materialized "
          << r.table->schema().column(c).type.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, SchemaAgreementTest,
    ::testing::Values(
        // Column targets with aliasing and collisions.
        "select ProductVtx.id, ProducerVtx.id from graph ProductVtx() "
        "--producer--> ProducerVtx() into table S1",
        "select ProductVtx.id as a, ProducerVtx.id as b from graph "
        "ProductVtx() --producer--> ProducerVtx() into table S2",
        // Whole-step and star selections (Fig. 13 expansion).
        "select * from graph OfferVtx(price > 100.0) --product--> "
        "ProductVtx() into table S3",
        "select OfferVtx from graph OfferVtx() --vendor--> VendorVtx() "
        "into table S4",
        // Labels (display-name prefixed columns).
        "select y.id from graph ProductVtx(id = %Product1%) --feature--> "
        "FeatureVtx() <--feature-- def y: ProductVtx(id <> %Product1%) "
        "into table S5",
        // Edge attribute selection.
        "select feature from graph ProductVtx() --feature--> FeatureVtx() "
        "into table S6",
        // Graph table feeding a relational statement (both schemas).
        "select ProductVtx.id from graph ProductVtx() --producer--> "
        "ProducerVtx(country = 'US') into table S7\n"
        "select top 5 id, count(*) as n from table S7 group by id order "
        "by n desc into table S8",
        // Relational-only: aliases, aggregates, duplicate default names.
        "select price, price as p2, avg(price) as m1, avg(deliveryDays) "
        "from table Offers group by price, price into table S9",
        // Or-composition with partially overlapping steps.
        "select ProductVtx.id from graph ProductVtx() --feature--> "
        "FeatureVtx() or ProductVtx() --type--> TypeVtx() into table "
        "S10",
        // A column named again by `*`.
        "select id, * from table Producers into table S11",
        // Literal and parameter projections: a string's width is its own.
        "select 'abc' as lit, %Product1% as p, label from table Products "
        "into table S12",
        // Aggregate output types over int and varchar inputs.
        "select producer, sum(propertyNumeric_1) as s, min(label) as m "
        "from table Products group by producer into table S13",
        // An edge with attributes after its target vertex, a repeated
        // vertex step, a repeated attributed edge, a regex group,
        // or-branches sharing a step, and a repeated step around an edge.
        kAttributedEdge, kRepeatedVertexStep, kRepeatedEdge, kRegexGroup,
        kSharedOrStep, kRepeatedOfferStep));

TEST_F(SchemaAgreementTest, StarKeepsTheMaterializedColumnNames) {
  // The names each shape materialized before the analyzer and the
  // executor shared one derivation: agreement must not come from a change
  // to what the executor builds.
  const struct {
    const char* query;
    std::vector<std::string> names;
  } cases[] = {
      {kAttributedEdge,
       {"ProductVtx_id", "ProductVtx_type", "ProductVtx_label",
        "ProductVtx_comment", "ProductVtx_producer",
        "ProductVtx_propertyNumeric_1", "ProductVtx_propertyNumeric_2",
        "ProductVtx_propertyNumeric_3", "ProductVtx_propertyNumeric_4",
        "ProductVtx_propertyNumeric_5", "ProductVtx_propertyText_1",
        "ProductVtx_propertyText_2", "ProductVtx_propertyText_3",
        "ProductVtx_propertyText_4", "ProductVtx_propertyText_5",
        "ProductVtx_publisher", "ProductVtx_date", "FeatureVtx_id",
        "FeatureVtx_type", "FeatureVtx_label", "FeatureVtx_comment",
        "FeatureVtx_publisher", "FeatureVtx_date", "feature_product",
        "feature_feature"}},
      {kRepeatedVertexStep,
       {"ProductVtx_id", "ProductVtx_type", "ProductVtx_label",
        "ProductVtx_comment", "ProductVtx_producer",
        "ProductVtx_propertyNumeric_1", "ProductVtx_propertyNumeric_2",
        "ProductVtx_propertyNumeric_3", "ProductVtx_propertyNumeric_4",
        "ProductVtx_propertyNumeric_5", "ProductVtx_propertyText_1",
        "ProductVtx_propertyText_2", "ProductVtx_propertyText_3",
        "ProductVtx_propertyText_4", "ProductVtx_propertyText_5",
        "ProductVtx_publisher", "ProductVtx_date", "ProducerVtx_id",
        "ProducerVtx_type", "ProducerVtx_label", "ProducerVtx_comment",
        "ProducerVtx_homepage", "ProducerVtx_country", "ProducerVtx_publisher",
        "ProducerVtx_date"}},
      {kRepeatedEdge,
       {"X_id", "X_type", "X_label", "X_comment", "X_producer",
        "X_propertyNumeric_1", "X_propertyNumeric_2", "X_propertyNumeric_3",
        "X_propertyNumeric_4", "X_propertyNumeric_5", "X_propertyText_1",
        "X_propertyText_2", "X_propertyText_3", "X_propertyText_4",
        "X_propertyText_5", "X_publisher", "X_date", "FeatureVtx_id",
        "FeatureVtx_type", "FeatureVtx_label", "FeatureVtx_comment",
        "FeatureVtx_publisher", "FeatureVtx_date", "feature_product",
        "feature_feature"}},
      {kRegexGroup,
       {"TypeVtx_id", "TypeVtx_type", "TypeVtx_comment", "TypeVtx_subclassOf",
        "TypeVtx_publisher", "TypeVtx_date"}},
      {kSharedOrStep,
       {"ProductVtx_id", "ProductVtx_type", "ProductVtx_label",
        "ProductVtx_comment", "ProductVtx_producer",
        "ProductVtx_propertyNumeric_1", "ProductVtx_propertyNumeric_2",
        "ProductVtx_propertyNumeric_3", "ProductVtx_propertyNumeric_4",
        "ProductVtx_propertyNumeric_5", "ProductVtx_propertyText_1",
        "ProductVtx_propertyText_2", "ProductVtx_propertyText_3",
        "ProductVtx_propertyText_4", "ProductVtx_propertyText_5",
        "ProductVtx_publisher", "ProductVtx_date", "FeatureVtx_id",
        "FeatureVtx_type", "FeatureVtx_label", "FeatureVtx_comment",
        "FeatureVtx_publisher", "FeatureVtx_date", "feature_product",
        "feature_feature", "TypeVtx_id", "TypeVtx_type", "TypeVtx_comment",
        "TypeVtx_subclassOf", "TypeVtx_publisher", "TypeVtx_date",
        "type_product", "type_type"}},
      {kRepeatedOfferStep,
       {"OfferVtx_id", "OfferVtx_type", "OfferVtx_product", "OfferVtx_vendor",
        "OfferVtx_price", "OfferVtx_validFrom", "OfferVtx_validTo",
        "OfferVtx_deliveryDays", "OfferVtx_offerWebPage", "OfferVtx_publisher",
        "OfferVtx_date", "ProductVtx_id", "ProductVtx_type", "ProductVtx_label",
        "ProductVtx_comment", "ProductVtx_producer",
        "ProductVtx_propertyNumeric_1", "ProductVtx_propertyNumeric_2",
        "ProductVtx_propertyNumeric_3", "ProductVtx_propertyNumeric_4",
        "ProductVtx_propertyNumeric_5", "ProductVtx_propertyText_1",
        "ProductVtx_propertyText_2", "ProductVtx_propertyText_3",
        "ProductVtx_propertyText_4", "ProductVtx_propertyText_5",
        "ProductVtx_publisher", "ProductVtx_date"}},
  };
  for (const auto& c : cases) {
    auto results = db_->run_script(c.query);
    ASSERT_TRUE(results.is_ok()) << results.status().to_string();
    const storage::Schema& schema = results->back().table->schema();
    std::vector<std::string> names;
    for (const auto& col : schema.columns()) names.push_back(col.name);
    EXPECT_EQ(names, c.names) << c.query;
  }
}

// ---- Scripted end-to-end pipeline -------------------------------------------

TEST(PipelineTest, FullScriptedLifecycle) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "gems_pipeline_test").string();
  fs::create_directories(dir);
  {
    std::ofstream p(dir + "/producers.csv");
    p << "pr0,Producer,A,c,hp,US,gen,2008-01-01\n"
         "pr1,Producer,B,c,hp,DE,gen,2008-01-01\n";
    std::ofstream q(dir + "/products.csv");
    q << "p0,Product,L0,c,pr0,1,2,3,4,5,a,b,c,d,e,gen,2008-02-01\n"
         "p1,Product,L1,c,pr0,9,8,7,6,5,a,b,c,d,e,gen,2008-02-02\n"
         "p2,Product,L2,c,pr1,5,5,5,5,5,a,b,c,d,e,gen,2008-02-03\n";
  }

  DatabaseOptions options;
  options.data_dir = dir;
  Database db(options);
  // One single script: DDL, ingest, query, post-process, export.
  auto r = db.run_script(
      bsbm::table_ddl() + bsbm::vertex_ddl() + bsbm::edge_ddl() + R"(
    ingest table Producers producers.csv
    ingest table Products products.csv

    select ProducerVtx.country, ProductVtx.id from graph
      ProductVtx(propertyNumeric_1 >= 5) --producer--> ProducerVtx()
    into table Chosen

    select country, count(*) as n from table Chosen
    group by country order by n desc into table PerCountry

    output table PerCountry 'per_country.csv'
  )");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  auto per_country = db.table("PerCountry");
  ASSERT_TRUE(per_country.is_ok());
  // p1 (pr0/US, 9) and p2 (pr1/DE, 5) pass the filter.
  ASSERT_EQ((*per_country)->num_rows(), 2u);
  EXPECT_TRUE(fs::exists(dir + "/per_country.csv"));
  fs::remove_all(dir);
}

TEST(PipelineTest, ErrorsNameTheStatement) {
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::table_ddl()).is_ok());
  const Status s = db.run_script(
                        "select id from table Products\n"
                        "select nope from table Products")
                       .status();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("statement 2"), std::string::npos)
      << s.to_string();
}

}  // namespace
}  // namespace gems::server
