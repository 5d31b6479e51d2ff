// Tests for the GEMS server facade: the full parse -> static-check ->
// IR -> schedule -> execute pipeline, catalog introspection, sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "common/metrics.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "plan/schedule.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"

namespace gems::server {
namespace {

using exec::StatementResult;
using storage::Value;

/// Renders results deterministically for byte-identity assertions.
std::string render(const std::vector<StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += "kind=" + std::to_string(static_cast<int>(r.kind));
    out += " message=" + r.message;
    if (r.table != nullptr) out += "\n" + r.table->to_string(1u << 20);
    out += "\n--\n";
  }
  return out;
}

/// Like render, with each table's rows sorted: plans may enumerate
/// matches in different orders.
std::string render_sorted(const std::vector<StatementResult>& results) {
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

/// Runs `text` the reference way: serially, in lexical order (no
/// planner), on a copy of the database's current state.
Result<std::vector<StatementResult>> run_serial_reference(
    Database& db, const std::string& text,
    const relational::ParamMap& params = {}) {
  GEMS_ASSIGN_OR_RETURN(graql::Script script, graql::parse_script(text));
  exec::ExecContext lexical = db.pin_epoch().ctx();
  lexical.planner = nullptr;
  exec::CatalogOverlay overlay;
  return plan::run_scheduled(script, plan::build_schedule(script), lexical,
                             params, overlay, /*pool=*/nullptr);
}

TEST(DatabaseTest, FullBerlinDdlRuns) {
  Database db;
  auto r = db.run_script(bsbm::full_ddl());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // 10 tables + 10 vertex types + 9 edge types.
  EXPECT_EQ(db.tables().size(), 10u);
  EXPECT_EQ(db.graph().num_vertex_types(), 10u);
  EXPECT_EQ(db.graph().num_edge_types(), 9u);
}

TEST(DatabaseTest, StaticAnalysisRejectsBeforeExecution) {
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::table_ddl() + bsbm::vertex_ddl()).is_ok());
  // Type error caught by the front-end (Sec. III-A), no execution happens.
  auto r = db.run_script(
      "select * from graph ProductVtx(date < 1.5) --producer--> "
      "ProducerVtx() into table R");
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  EXPECT_FALSE(db.tables().contains("R"));
}

TEST(DatabaseTest, CheckScriptWithoutExecution) {
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  EXPECT_TRUE(db.check_script("select id from table Products").is_ok());
  EXPECT_FALSE(db.check_script("select nope from table Products").is_ok());
  // check_script never executes: no result tables appear.
  EXPECT_TRUE(db
                  .check_script("select ProductVtx.id from graph ProductVtx() "
                                "--producer--> ProducerVtx() into table R9")
                  .is_ok());
  EXPECT_FALSE(db.tables().contains("R9"));
}

TEST(DatabaseTest, ParamsFlowThroughPipeline) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(60, 3));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  relational::ParamMap params;
  params.emplace("Product1", Value::varchar("p0"));
  auto r = (*db)->run_statement(
      "select ProductVtx.id from graph ProductVtx(id = %Product1%) "
      "--producer--> ProducerVtx() into table R",
      params);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r->table->num_rows(), 1u);
  EXPECT_EQ(r->table->value_at(0, 0).as_string(), "p0");
  // Unbound parameter fails cleanly (at binding, after static analysis
  // passes it as a wildcard... the analyzer has params here, so earlier).
  EXPECT_FALSE((*db)
                   ->run_statement(
                       "select ProductVtx.id from graph ProductVtx(id = "
                       "%Nope%) --producer--> ProducerVtx() into table R")
                   .is_ok());
}

TEST(DatabaseTest, SessionCarriesParams) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(60, 3));
  ASSERT_TRUE(db.is_ok());
  Session session(**db);
  session.set_param("Product1", Value::varchar("p1"));
  auto r = session.run(bsbm::berlin_q2());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LE(r->back().table->num_rows(), 10u);
}

TEST(DatabaseTest, IrRoundTripIsOnThePath) {
  // run_script compiles to the binary IR and decodes it before analysis,
  // exactly as a remote client's blob arrives: feeding the client-side
  // encoding to run_ir gives the same result bytes.
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(60, 3));
  ASSERT_TRUE(db.is_ok());
  relational::ParamMap params;
  params.emplace("Product1", Value::varchar("p1"));
  auto script = graql::parse_script(bsbm::berlin_q2());
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  auto direct = (*db)->run_script(bsbm::berlin_q2(), params);
  auto via_ir = (*db)->run_ir(graql::encode_script(script.value()), params);
  ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
  ASSERT_TRUE(via_ir.is_ok()) << via_ir.status().to_string();
  EXPECT_EQ(direct->back().table->to_string(1u << 20),
            via_ir->back().table->to_string(1u << 20));
}

TEST(DatabaseTest, CatalogReportsSizes) {
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(80, 21));
  ASSERT_TRUE(db.is_ok());
  const auto entries = (*db)->catalog();
  bool found_products_table = false;
  bool found_product_vtx = false;
  bool found_producer_edge = false;
  for (const auto& e : entries) {
    if (e.kind == CatalogEntry::Kind::kTable && e.name == "Products") {
      found_products_table = true;
      EXPECT_EQ(e.instances, 80u);
      EXPECT_GT(e.byte_size, 0u);
    }
    if (e.kind == CatalogEntry::Kind::kVertexType &&
        e.name == "ProductVtx") {
      found_product_vtx = true;
      EXPECT_EQ(e.instances, 80u);
    }
    if (e.kind == CatalogEntry::Kind::kEdgeType && e.name == "producer") {
      found_producer_edge = true;
      EXPECT_EQ(e.instances, 80u);  // every product has a producer
      EXPECT_GT(e.byte_size, 0u);   // both CSR directions
    }
  }
  EXPECT_TRUE(found_products_table);
  EXPECT_TRUE(found_product_vtx);
  EXPECT_TRUE(found_producer_edge);
  EXPECT_FALSE((*db)->catalog_summary().empty());
}

TEST(DatabaseTest, MetaCatalogMirrorsLiveState) {
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(40, 5));
  ASSERT_TRUE(db.is_ok());
  ASSERT_TRUE((*db)
                  ->run_statement(
                      "select ProductVtx from graph ProductVtx() "
                      "--producer--> ProducerVtx() into subgraph G1")
                  .is_ok());
  const graql::MetaCatalog meta = (*db)->meta_catalog();
  EXPECT_NE(meta.find_table("Products"), nullptr);
  EXPECT_NE(meta.find_vertex("ProductVtx"), nullptr);
  EXPECT_NE(meta.find_edge("producer"), nullptr);
  ASSERT_NE(meta.find_subgraph("G1"), nullptr);
  EXPECT_TRUE(meta.find_subgraph("G1")->vertex_steps.contains("ProductVtx"));
  // The edge attr schema is present only for assoc-table edges.
  EXPECT_FALSE(meta.find_edge("producer")->attr_schema.has_value());
  EXPECT_TRUE(meta.find_edge("feature")->attr_schema.has_value());
}

TEST(DatabaseTest, IngestPathResolution) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream f(dir + "/gems_producers.csv");
    f << "pr0,Producer,P0,c,hp,US,gen,2008-01-01\n";
  }
  DatabaseOptions options;
  options.data_dir = dir;
  Database db(options);
  ASSERT_TRUE(db.run_script(bsbm::table_ddl()).is_ok());
  auto r = db.run_statement("ingest table Producers gems_producers.csv");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ((*db.table("Producers"))->num_rows(), 1u);
  std::remove((dir + "/gems_producers.csv").c_str());
}

TEST(DatabaseTest, WideLevelMatchesSerialExecution) {
  // A and B share the first level, the two counts the second: with
  // default options run_script runs both levels on the shared pool.
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(60, 13);
  ASSERT_TRUE(bsbm::generate(db, config).is_ok());
  const std::string script =
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table A\n"
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'DE') into table B\n"
      "select count(*) as n from table A\n"
      "select count(*) as n from table B";
  auto serial = run_serial_reference(db, script);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  auto r = db.run_script(script);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(render_sorted(*r), render_sorted(*serial));
  EXPECT_TRUE(db.tables().contains("A"));
  EXPECT_TRUE(db.tables().contains("B"));

  // The same levels in a writer script run on the live context, under the
  // writer lock, with the live planner hook called from pool threads.
  auto w = db.run_script("create table Marker(id varchar(10))\n" + script);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  w->erase(w->begin());
  EXPECT_EQ(render_sorted(*w), render_sorted(*serial));
  EXPECT_TRUE(db.tables().contains("Marker"));
}

TEST(DatabaseTest, FailedWriterScriptKeepsEarlierStatements) {
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(60, 13));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  const std::uint64_t published =
      metrics::value((*db)->metrics_snapshot(), "mvcc.epochs.published");
  // Statement 3 fails at run time (no such file), after static analysis.
  auto r = (*db)->run_script(
      "create table Early(id varchar(10))\n"
      "select id, country from table Producers into table EarlyResult\n"
      "ingest table Early 'gems_no_such_file.csv'\n"
      "create table Late(id varchar(10))");
  ASSERT_FALSE(r.is_ok());
  // Statements 1 and 2 stay applied and are published; 4 never ran.
  EXPECT_EQ(metrics::value((*db)->metrics_snapshot(), "mvcc.epochs.published"),
            published + 1);
  {
    const mvcc::EpochPin pin = (*db)->pin_epoch();
    EXPECT_TRUE(pin.ctx().tables.contains("Early"));
    EXPECT_TRUE(pin.ctx().tables.contains("EarlyResult"));
    EXPECT_FALSE(pin.ctx().tables.contains("Late"));
  }
  auto n = (*db)->run_statement("select count(*) as n from table EarlyResult");
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(n->table->value_at(0, 0).to_string(),
            std::to_string((*(*db)->table("Producers"))->num_rows()));
}

TEST(DatabaseTest, FailedReadOnlyScriptPublishesNothing) {
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(60, 13));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  const std::uint64_t published =
      metrics::value((*db)->metrics_snapshot(), "mvcc.epochs.published");
  auto r = (*db)->run_script(
      "select id, country from table Producers into table Staged\n"
      "output table Staged '" +
      ::testing::TempDir() + "/gems_no_such_dir/staged.csv'");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(metrics::value((*db)->metrics_snapshot(), "mvcc.epochs.published"),
            published);
  EXPECT_FALSE((*db)->pin_epoch().ctx().tables.contains("Staged"));
  EXPECT_FALSE((*db)->tables().contains("Staged"));
}

TEST(DatabaseTest, DeepestAcceptedExpressionsRunEndToEnd) {
  // Trees of exactly relational::kMaxExprDepth levels pass the parser and
  // the IR decoder; every later pass (analysis, binding, evaluation) must
  // then handle them.
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(60, 13));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  const std::size_t depth = relational::kMaxExprDepth;
  std::string nots;  // depth - 2 nots over a two-level comparison
  for (std::size_t i = 0; i + 2 < depth; ++i) nots += "not ";
  std::string ors = "country = 'US'";  // left-deep: one level per `or`
  for (std::size_t i = 0; i + 2 < depth; ++i) ors += " or country = 'US'";
  auto counted = [&](const std::string& where) {
    auto r = (*db)->run_statement(
        "select count(*) as n from table Producers where " + where);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return r.is_ok() ? r->table->value_at(0, 0).to_string() : "";
  };
  const std::string us = counted("country = 'US'");
  EXPECT_EQ(counted(nots + "(country = 'US')"), us);  // an even count
  EXPECT_EQ(counted(ors), us);
  EXPECT_FALSE((*db)->run_statement(
                       "select count(*) as n from table Producers where " +
                       ors + " or country = 'US'")
                   .is_ok());
}

TEST(DatabaseTest, RowCapOption) {
  DatabaseOptions options;
  options.max_result_rows = 5;
  Database db(options);
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(100, 2);
  ASSERT_TRUE(bsbm::generate(db, config).is_ok());
  auto r = db.run_statement(
      "select OfferVtx.id from graph OfferVtx() --product--> ProductVtx() "
      "into table R");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->table->num_rows(), 5u);
  EXPECT_TRUE(r->truncated);
}

TEST(DatabaseTest, IntraNodeParallelScansMatchSerial) {
  // The intra-node pool builds the graph (DESIGN.md §5e); a scan runs on
  // the request's thread either way, and must read the same.
  std::vector<std::string> renders;
  for (const std::size_t threads : {0u, 4u}) {
    DatabaseOptions options;
    options.intra_node_threads = threads;
    Database db(options);
    ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
    bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(4000, 3);
    ASSERT_TRUE(bsbm::generate(db, config).is_ok());
    auto r = db.run_statement(
        "select id, price from table Offers where price > 500.0 and "
        "deliveryDays <= 7 order by id");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::string render;
    for (storage::RowIndex i = 0; i < r->table->num_rows(); ++i) {
      render += r->table->value_at(i, 0).to_string() + "|" +
                r->table->value_at(i, 1).to_string() + "\n";
    }
    renders.push_back(std::move(render));
  }
  EXPECT_EQ(renders[0], renders[1]);
}

TEST(DatabaseTest, ExplainShowsPlanWithoutExecuting) {
  auto db = bsbm::make_populated_database(
      bsbm::GeneratorConfig::derive(80, 23));
  ASSERT_TRUE(db.is_ok());
  relational::ParamMap params;
  params.emplace("Producer1", Value::varchar("pr0"));
  auto plan = (*db)->explain(
      "select * from graph PersonVtx() <--reviewer-- ReviewVtx() "
      "--reviewFor--> ProductVtx() --producer--> ProducerVtx(id = "
      "%Producer1%) into table R",
      params);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  // The pivot must be the selective ProducerVtx step (var 3).
  EXPECT_NE(plan->find("pivot: var 3"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("fixpoint-exact"), std::string::npos);
  EXPECT_NE(plan->find("schedule: 1 level"), std::string::npos);
  // explain does not execute.
  EXPECT_FALSE((*db)->tables().contains("R"));
  // Broken scripts fail the same static checks.
  EXPECT_FALSE((*db)->explain("select * from graph Nope() --producer--> "
                              "ProducerVtx() into table R")
                   .is_ok());
}

TEST(DatabaseTest, PlannerToggleProducesSameResults) {
  // Same data, same seed: the planned run_script and the lexical-order
  // reference return the same rows.
  Database db;
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(80, 17);
  ASSERT_TRUE(bsbm::generate(db, config).is_ok());
  relational::ParamMap params;
  params.emplace("Product1", Value::varchar("p3"));
  auto lexical = run_serial_reference(db, bsbm::berlin_q2(), params);
  ASSERT_TRUE(lexical.is_ok()) << lexical.status().to_string();
  auto r = db.run_script(bsbm::berlin_q2(), params);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(render_sorted(*r), render_sorted(*lexical));
}

// ---- Concurrent readers and the writer lock -------------------------------

/// Read-only Berlin scripts: pure selects plus an `into table` script that
/// reads its own staged result back (overlay-first resolution).
std::vector<std::string> read_only_scripts() {
  return {
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table RoUS\n"
      "select count(*) as n from table RoUS",
      "select id, price from table Offers where price > 500.0 and "
      "deliveryDays <= 7 order by id",
      "select count(*) as n from table Reviews",
  };
}

TEST(ConcurrentAccessTest, EightReadersMatchSerialByteIdentical) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(60, 7));
  ASSERT_TRUE(db.is_ok()) << db.status().to_string();
  const std::vector<std::string> scripts = read_only_scripts();

  // Serial reference, once per script.
  std::vector<std::string> baseline;
  for (const auto& s : scripts) {
    auto r = (*db)->run_script(s);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    baseline.push_back(render(r.value()));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < scripts.size(); ++s) {
          auto r = (*db)->run_script(scripts[s]);
          if (!r.is_ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (render(r.value()) != baseline[s]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Every script above is read-only: with gems::mvcc each execution pins
  // an epoch instead of taking the access lock.
  const metrics::Snapshot e = (*db)->metrics_snapshot();
  EXPECT_GE(metrics::value(e, "mvcc.pins.taken"),
            static_cast<std::uint64_t>(kThreads * kRounds * scripts.size()));
  EXPECT_EQ(metrics::value(e, "mvcc.pins.outstanding"), 0u);  // all released
  // Only the `into table` scripts took brief writer-lock windows to fold
  // their overlays into new epochs...
  const std::uint64_t writes = metrics::value(e, "access.writer.acquired");
  EXPECT_GE(writes, static_cast<std::uint64_t>(kThreads));
  // ...scripts without `into` never touch the lock.
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t s = 1; s < scripts.size(); ++s) {
      ASSERT_TRUE((*db)->run_script(scripts[s]).is_ok());
    }
  }
  EXPECT_EQ(
      metrics::value((*db)->metrics_snapshot(), "access.writer.acquired"),
      writes);
}

TEST(ConcurrentAccessTest, ReadersNeverObserveHalfCommittedState) {
  // Readers loop read-only counts while the main thread interleaves
  // WAL-logged ingests and checkpoints. Every observation must equal a
  // statement-boundary state: the producer count is monotone in whole
  // ingest batches, never a partial catalog.
  const std::string dir = ::testing::TempDir() + "gems_access_store";
  const std::string csv = dir + "/more_producers.csv";
  std::filesystem::remove_all(dir);  // stale store from an aborted run
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(csv);
    for (int i = 0; i < 50; ++i) {
      f << "x" << i << ",Producer,P" << i << ",c,hp,US,gen,2008-01-01\n";
    }
  }
  DatabaseOptions options;
  options.data_dir = dir;
  options.store_dir = dir + "/store";
  options.wal_fsync = false;
  Database db(options);
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  ASSERT_TRUE(db.run_script(bsbm::full_ddl()).is_ok());
  bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(40, 11);
  ASSERT_TRUE(bsbm::generate(db, config).is_ok());
  const std::uint64_t base =
      static_cast<std::uint64_t>((*db.table("Producers"))->num_rows());

  constexpr int kThreads = 8;
  constexpr int kBatches = 4;
  const std::uint64_t writes_before =
      metrics::value(db.metrics_snapshot(), "access.writer.acquired");
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = db.run_statement(
            "select count(*) as n from table Producers");
        if (!r.is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto n = static_cast<std::uint64_t>(
            r->table->value_at(0, 0).as_int64());
        // Only whole 50-row batches on top of the generated base are
        // legal observations.
        if (n < base || (n - base) % 50 != 0) torn_reads.fetch_add(1);
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    auto r = db.run_script("ingest table Producers more_producers.csv");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const Status s = db.checkpoint();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ((*db.table("Producers"))->num_rows(), base + 50 * kBatches);

  // Each ingest script took the writer lock once and each checkpoint
  // twice (capture, rotate); the readers pinned epochs and never
  // acquired it at all.
  const metrics::Snapshot e = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(e, "access.writer.acquired") - writes_before,
            static_cast<std::uint64_t>(3 * kBatches));
  EXPECT_GE(metrics::value(e, "mvcc.pins.taken"),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(metrics::value(e, "mvcc.epochs.published"),
            static_cast<std::uint64_t>(kBatches));
  std::filesystem::remove_all(dir);
}

TEST(ConcurrentAccessTest, OverlayKeepsSerialSemanticsWithinAScript) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(40, 3));
  ASSERT_TRUE(db.is_ok());
  // A read-only script that stages a table, reads it back, stages a
  // subgraph, and queries it — all before anything is published.
  auto r = (*db)->run_script(
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx(country = 'US') into table StagedT\n"
      "select count(*) as n from table StagedT\n"
      "select * from graph ProductVtx() --producer--> ProducerVtx() "
      "into subgraph StagedG\n"
      "select ProductVtx.id from graph StagedG.ProductVtx() --producer--> "
      "ProducerVtx() into table FromStagedG");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // After the script, the overlay is published: all names visible.
  EXPECT_TRUE((*db)->tables().contains("StagedT"));
  EXPECT_TRUE((*db)->tables().contains("FromStagedG"));
  EXPECT_TRUE((*db)->subgraph("StagedG").is_ok());
}

TEST(ConcurrentAccessTest, CachedStatsSnapshotSurvivesInvalidation) {
  auto db = bsbm::make_populated_database(bsbm::GeneratorConfig::derive(40, 5));
  ASSERT_TRUE(db.is_ok());
  const std::shared_ptr<const plan::GraphStats> before = (*db)->cached_stats();
  ASSERT_NE(before, nullptr);
  const std::size_t edge_kinds = before->edge_stats.size();
  // DDL bumps graph_version -> the cache re-collects on next request; the
  // old snapshot must stay alive and readable (this is the use-after-free
  // the shared_ptr return fixed).
  ASSERT_TRUE(
      (*db)
          ->run_script("create table Extra(id varchar(32), v integer)")
          .is_ok());
  ASSERT_TRUE(
      (*db)
          ->run_script("create vertex ExtraVtx(id) from table Extra")
          .is_ok());
  const std::shared_ptr<const plan::GraphStats> after = (*db)->cached_stats();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->edge_stats.size(), edge_kinds);  // old snapshot intact
}

}  // namespace
}  // namespace gems::server
