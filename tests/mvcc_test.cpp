// Tests for gems::mvcc: epoch lifecycle accounting (publish / pin /
// retire / free with deferred retirement), pin-across-publish safety (a
// reader pinned while writers publish keeps byte-stable state — run under
// TSan/ASan in CI to prove no use-after-free), incremental CSR delta
// maintenance vs. full rebuild byte-identity, snapshot_bytes served from
// a pinned epoch, durability equivalence (recovery from snapshot + WAL
// tail reproduces the pre-crash pinned-epoch image, including batches
// applied through the delta path), and the mixed read/write soak: writers
// publishing epochs while eight readers run graph queries that must stay
// byte-identical to the serial baseline and never observe a
// half-published state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bsbm/generator.hpp"
#include "common/metrics.hpp"
#include "exec/executor.hpp"
#include "graql/parser.hpp"
#include "mvcc/epoch.hpp"
#include "plan/schedule.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"
#include "store/snapshot.hpp"

namespace gems::mvcc {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::path(::testing::TempDir()) /
            ("gems_mvcc_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string sub(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

const char kDdl[] = R"(
  create table People(name varchar(24), age integer)
  create table Knows(src varchar(24), dst varchar(24))
  create vertex Person(name) from table People
  create edge knows with vertices (Person as A, Person as B)
    from table Knows
    where Knows.src = A.name and Knows.dst = B.name
)";

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

void write_people_csvs(const TempDir& dir) {
  write_text_file(dir.sub("people.csv"),
                  "ada,36\ngrace,45\nedsger,40\nbarbara,38\n");
  write_text_file(dir.sub("knows.csv"),
                  "ada,grace\ngrace,edsger\nedsger,ada\nbarbara,grace\n");
}

/// A batch CSV of `rows` fresh people with names unique across
/// (tag, batch) so incremental ingest never hits a key collision.
std::string batch_csv(const TempDir& dir, const std::string& tag, int batch,
                      int rows) {
  std::ostringstream text;
  for (int i = 0; i < rows; ++i) {
    text << tag << batch << "_p" << i << "," << (20 + i % 50) << "\n";
  }
  const std::string name = "batch_" + tag + std::to_string(batch) + ".csv";
  write_text_file(dir.sub(name), text.str());
  return name;
}

void populate(server::Database& db) {
  auto r = db.run_script(kDdl);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  r = db.run_script(
      "ingest table People 'people.csv'\n"
      "ingest table Knows 'knows.csv'\n");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
}

/// Canonical rendering of the whole database for equality checks.
std::string state_fingerprint(server::Database& db) {
  std::ostringstream out;
  out << db.catalog_summary() << "\n";
  for (const auto& name : db.tables().names()) {
    out << "== " << name << " ==\n";
    storage::write_csv(**db.table(name), out);
  }
  return out.str();
}

/// Renders results deterministically for byte-identity assertions.
std::string render(const std::vector<exec::StatementResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += "kind=" + std::to_string(static_cast<int>(r.kind));
    out += " message=" + r.message;
    if (r.table != nullptr) out += "\n" + r.table->to_string(1u << 20);
    out += "\n--\n";
  }
  return out;
}

/// Catalog sizes and table rows of a context, for equality checks between
/// a database's pinned state and a rebuilt copy of it.
std::string context_fingerprint(const exec::ExecContext& ctx) {
  std::ostringstream out;
  for (graph::VertexTypeId t = 0; t < ctx.graph.num_vertex_types(); ++t) {
    const graph::VertexType& vt = ctx.graph.vertex_type(t);
    out << "vertex " << vt.name() << " " << vt.num_vertices() << " "
        << vt.byte_size() << "\n";
  }
  for (graph::EdgeTypeId e = 0; e < ctx.graph.num_edge_types(); ++e) {
    const graph::EdgeType& et = ctx.graph.edge_type(e);
    out << "edge " << et.name() << " " << et.num_edges() << " "
        << et.forward().byte_size() + et.reverse().byte_size() << "\n";
  }
  for (const auto& [name, sub] : ctx.subgraphs) {
    out << "subgraph " << name << " " << sub->num_vertices() << " "
        << sub->num_edges() << "\n";
  }
  for (const auto& name : ctx.tables.names()) {
    out << "== " << name << " ==\n";
    storage::write_csv(**ctx.tables.find(name), out);
  }
  return out.str();
}

/// The full-rebuild reference for delta ingest: a copy of a pinned state,
/// its graph rebuilt from the declarations.
exec::ExecContext rebuilt_copy(const EpochPin& pin) {
  exec::ExecContext rebuilt = pin.ctx();
  // The epoch's planner closure points into the epoch; the copy plans in
  // lexical order.
  rebuilt.planner = nullptr;
  const Status s = rebuilt.rebuild_graph();
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  return rebuilt;
}

/// Runs a read-only script serially in lexical order against a copy of
/// `ctx` and renders its results.
std::string run_lexical(exec::ExecContext ctx, const std::string& text) {
  ctx.planner = nullptr;
  auto script = graql::parse_script(text);
  if (!script.is_ok()) return script.status().to_string();
  exec::CatalogOverlay overlay;
  auto r = plan::run_scheduled(*script, plan::build_schedule(*script), ctx,
                               {}, overlay, /*pool=*/nullptr);
  return r.is_ok() ? render(r.value()) : r.status().to_string();
}

// ---- Epoch lifecycle accounting --------------------------------------------

TEST(EpochManagerTest, PublishPinRetireFreeCounts) {
  EpochManager manager;
  EXPECT_FALSE(manager.has_epoch());

  exec::ExecContext base;
  base.data_dir = "alpha";
  EXPECT_EQ(manager.publish(base), 1u);
  EXPECT_TRUE(manager.has_epoch());
  metrics::Snapshot m = manager.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.published"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.freed"), 0u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.current"), 1u);

  EpochPin pin = manager.pin();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch().id(), 1u);
  EXPECT_EQ(pin.ctx().data_dir, "alpha");
  m = manager.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.pins.taken"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.pins.outstanding"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.pins.peak"), 1u);

  // Superseding a pinned epoch retires it (deferred) instead of freeing.
  base.data_dir = "beta";
  EXPECT_EQ(manager.publish(base), 2u);
  m = manager.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.published"), 2u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.retired"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.freed"), 0u);
  // current + the pinned predecessor
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 2u);
  EXPECT_EQ(pin.ctx().data_dir, "alpha");  // pinned state is immutable

  // Superseding an *unpinned* epoch frees it immediately.
  EXPECT_EQ(manager.publish(base), 3u);
  m = manager.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.retired"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.freed"), 1u);
  // current + the still-pinned epoch 1
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 2u);

  // Dropping the last pin drains the retired list.
  pin.release();
  EXPECT_FALSE(pin.valid());
  m = manager.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.freed"), 2u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.pins.outstanding"), 0u);
  EXPECT_EQ(metrics::value(m, "mvcc.pins.taken"), 1u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.current"), 3u);
}

TEST(EpochManagerTest, MovedFromPinIsInert) {
  EpochManager manager;
  manager.publish(exec::ExecContext{});
  EpochPin a = manager.pin();
  EpochPin b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  auto pinned = [&] {
    return metrics::value(manager.metrics_snapshot(),
                          "mvcc.pins.outstanding");
  };
  EXPECT_EQ(pinned(), 1u);
  a.release();  // no-op on the moved-from shell
  EXPECT_EQ(pinned(), 1u);
  b.release();
  EXPECT_EQ(pinned(), 0u);
}

// Satellite: deferred retirement through the full database stack — a pin
// taken before a run of ingests keeps that epoch's state alive and
// byte-stable; the epoch is freed only when the pin drains.
TEST(EpochManagerTest, PinKeepsSupersededEpochAliveAcrossIngests) {
  TempDir dir("retire");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);

  EpochPin pin = db.pin_epoch();
  const auto people_at_pin = *pin.ctx().tables.find("People");
  ASSERT_EQ(people_at_pin->num_rows(), 4u);

  constexpr int kBatches = 3;
  for (int b = 0; b < kBatches; ++b) {
    const std::string csv = batch_csv(dir, "r", b, 10);
    auto r = db.run_script("ingest table People '" + csv + "'");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }

  // The live state moved on; the pinned epoch did not.
  EXPECT_EQ((*db.table("People"))->num_rows(), 4u + 10u * kBatches);
  EXPECT_EQ((*pin.ctx().tables.find("People"))->num_rows(), 4u);
  EXPECT_EQ(people_at_pin.get(), pin.ctx().tables.find("People")->get());

  metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.pins.outstanding"), 1u);
  // Our epoch was superseded while pinned.
  EXPECT_GE(metrics::value(m, "mvcc.epochs.retired"), 1u);
  const std::uint64_t freed_before_release =
      metrics::value(m, "mvcc.epochs.freed");

  pin.release();
  m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.pins.outstanding"), 0u);
  EXPECT_GT(metrics::value(m, "mvcc.epochs.freed"), freed_before_release);
  // Only the current epoch remains.
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 1u);
}

// Readers pin and re-walk epoch state while a writer publishes as fast as
// it can. TSan/ASan (CI) turn any premature free into a hard failure;
// the in-pin double-walk turns one into a visible mismatch here too.
TEST(EpochManagerTest, PinAcrossPublishHammer) {
  TempDir dir("hammer");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);

  constexpr int kReaders = 4;
  constexpr int kIngests = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochPin pin = db.pin_epoch();
        const auto people = *pin.ctx().tables.find("People");
        const std::size_t rows = people->num_rows();
        std::int64_t first = 0;
        for (std::size_t i = 0; i < rows; ++i) {
          first += people->value_at(i, 1).as_int64();
        }
        std::this_thread::yield();  // let publishes land mid-pin
        std::int64_t second = 0;
        for (std::size_t i = 0; i < rows; ++i) {
          second += people->value_at(i, 1).as_int64();
        }
        if (second != first || people->num_rows() != rows) {
          torn.fetch_add(1);
        }
      }
    });
  }
  // Live snapshots are taken under the manager mutex: every published
  // epoch is either live or freed in each one.
  std::atomic<int> inconsistent{0};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const metrics::Snapshot s = db.metrics_snapshot();
      if (metrics::value(s, "mvcc.epochs.freed") +
              metrics::value(s, "mvcc.epochs.live") !=
          metrics::value(s, "mvcc.epochs.published")) {
        inconsistent.fetch_add(1);
      }
    }
  });

  for (int b = 0; b < kIngests; ++b) {
    const std::string csv = batch_csv(dir, "h", b, 25);
    auto r = db.run_script("ingest table People '" + csv + "'");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    // Interleave no-op publications to churn the retire/free path harder.
    db.refresh_epoch();
    db.refresh_epoch();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  snapshotter.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(inconsistent.load(), 0);
  const metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "mvcc.pins.outstanding"), 0u);
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.live"), 1u);
  EXPECT_GE(metrics::value(m, "mvcc.epochs.published"),
            static_cast<std::uint64_t>(3 * kIngests));
  // Every retirement eventually drained: nothing leaked.
  EXPECT_EQ(metrics::value(m, "mvcc.epochs.freed") +
                metrics::value(m, "mvcc.epochs.live"),
            metrics::value(m, "mvcc.epochs.published"));
}

// ---- Incremental CSR delta vs. full rebuild --------------------------------

TEST(DeltaIngestTest, MatchesFullRebuildByteIdentical) {
  TempDir dir("delta_eq");
  write_people_csvs(dir);
  std::vector<std::string> batches;
  for (int b = 0; b < 3; ++b) batches.push_back(batch_csv(dir, "d", b, 15));
  // Later knows edges referencing both seed and batch people: the delta
  // path must extend the edge CSR, not just vertex instances.
  write_text_file(dir.sub("knows2.csv"), "d0_p0,ada\nd1_p3,d0_p0\n");

  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);
  for (const auto& csv : batches) {
    auto r = db.run_script("ingest table People '" + csv + "'");
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }
  auto r = db.run_script("ingest table Knows 'knows2.csv'");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();

  // Every ingest took the delta path: 3 People batches + knows2.
  const metrics::Snapshot dm = db.metrics_snapshot();
  EXPECT_GE(metrics::value(dm, "mvcc.ingest.delta"), 4u);
  EXPECT_EQ(metrics::value(dm, "mvcc.ingest.rebuild"), 0u);

  // Same catalog, same rows, same instance numbering, same bytes as the
  // full rebuild of the same state.
  const EpochPin pin = db.pin_epoch();
  const exec::ExecContext rebuilt = rebuilt_copy(pin);
  EXPECT_EQ(context_fingerprint(pin.ctx()), context_fingerprint(rebuilt));
  EXPECT_EQ(store::encode_snapshot(pin.ctx(), 0),
            store::encode_snapshot(rebuilt, 0));

  // Same query answers, including traversals over delta-extended edges.
  const std::vector<std::string> queries = {
      "select A.name, B.name as friend from graph def A: Person() "
      "--knows--> def B: Person()",
      "select Person.age from graph Person (name = 'd0_p0')",
      "select count(*) as n from table People",
  };
  for (const auto& q : queries) {
    const std::string delta = run_lexical(pin.ctx(), q);
    EXPECT_EQ(delta.rfind("kind=", 0), 0u) << delta;
    EXPECT_EQ(delta, run_lexical(rebuilt, q)) << q;
  }
}

// Berlin ingests large enough to seal several 1024-row chunks of the
// ingested tables and of the edge endpoint arrays. The Reviews batches
// extend the collapsed `reviewFor` and `reviewer` edges with new vertices;
// Offers batches extend `product`, `vendor` and the many-to-one `export`
// edge, whose new offers mostly land on country pairs the base already has
// (the delta finds those in the base CSR); a ProductTypes batch extends the
// attributed `type` edge, whose attribute table the delta appends to.
TEST(DeltaIngestTest, BerlinIngestsAcrossChunkSealsMatchRebuild) {
  TempDir dir("berlin_chunks");
  const bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(300, 5);
  std::uint64_t state = 12345;
  auto next = [&](std::uint64_t n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % n;
  };
  std::vector<std::string> reviews;
  for (int b = 0; b < 3; ++b) {
    std::ostringstream csv;
    for (int k = 0; k < 500; ++k) {
      csv << "r" << 50000 + b * 500 + k << ",Review,"
          << bsbm::product_id(next(config.num_products)) << ","
          << bsbm::person_id(next(config.num_persons))
          << ",2008-03-01,T1,txt," << next(10) << ",,3,4,gen,2008-04-02\n";
    }
    const std::string name = "reviews" + std::to_string(b) + ".csv";
    write_text_file(dir.sub(name), csv.str());
    reviews.push_back("ingest table Reviews '" + name + "'");
  }
  std::vector<std::string> others;
  for (int b = 0; b < 2; ++b) {
    std::ostringstream csv;
    for (int k = 0; k < 700; ++k) {
      csv << "o" << 50000 + b * 700 + k << ",Offer,"
          << bsbm::product_id(next(config.num_products)) << ","
          << bsbm::vendor_id(next(config.num_vendors)) << ","
          << 10 + next(500) << ".5,2008-01-01,2008-02-01," << 1 + next(14)
          << ",web,gen,2008-01-05\n";
    }
    const std::string name = "offers" + std::to_string(b) + ".csv";
    write_text_file(dir.sub(name), csv.str());
    others.push_back("ingest table Offers '" + name + "'");
  }
  {
    std::ostringstream csv;
    for (int k = 0; k < 1100; ++k) {
      csv << bsbm::product_id(next(config.num_products)) << ","
          << bsbm::type_id(next(config.num_types)) << "\n";
    }
    write_text_file(dir.sub("types.csv"), csv.str());
    others.push_back("ingest table ProductTypes 'types.csv'");
  }

  server::DatabaseOptions options;
  options.data_dir = dir.path;
  auto made = bsbm::make_populated_database(config, options);
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  server::Database& db = **made;
  auto run = [&db](const std::vector<std::string>& scripts) {
    for (const auto& script : scripts) {
      auto r = db.run_script(script);
      EXPECT_TRUE(r.is_ok()) << script << ": " << r.status().to_string();
    }
  };

  // Reviews grow past two chunk seals; the delta is byte-identical.
  run(reviews);
  EXPECT_GT((*db.table("Reviews"))->num_rows(), 2 * kChunkRows);
  {
    const EpochPin pin = db.pin_epoch();
    const exec::ExecContext rebuilt = rebuilt_copy(pin);
    EXPECT_EQ(context_fingerprint(pin.ctx()), context_fingerprint(rebuilt));
    EXPECT_EQ(store::encode_snapshot(pin.ctx(), 0),
              store::encode_snapshot(rebuilt, 0));
  }

  // Offers and ProductTypes. A delta appends new edges after the base's,
  // while a rebuild orders `export` and `type` edges by their first join
  // source (Producers, Products), so those two types match as edge sets
  // and every other piece matches byte for byte.
  run(others);
  const metrics::Snapshot dm = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(dm, "mvcc.ingest.delta"),
            reviews.size() + others.size());
  EXPECT_EQ(metrics::value(dm, "mvcc.ingest.rebuild"), 0u);
  EXPECT_GT((*db.table("Offers"))->num_rows(), 2 * kChunkRows);
  const EpochPin pin = db.pin_epoch();
  const exec::ExecContext rebuilt = rebuilt_copy(pin);
  EXPECT_EQ(context_fingerprint(pin.ctx()), context_fingerprint(rebuilt));
  const graph::GraphView& dg = pin.ctx().graph;
  const graph::GraphView& rg = rebuilt.graph;
  ASSERT_EQ(dg.num_vertex_types(), rg.num_vertex_types());
  for (graph::VertexTypeId t = 0; t < dg.num_vertex_types(); ++t) {
    EXPECT_TRUE(dg.vertex_type(t).representative_rows() ==
                rg.vertex_type(t).representative_rows());
    EXPECT_TRUE(dg.vertex_type(t).matching_rows() ==
                rg.vertex_type(t).matching_rows());
  }
  ASSERT_EQ(dg.num_edge_types(), rg.num_edge_types());
  for (graph::EdgeTypeId e = 0; e < dg.num_edge_types(); ++e) {
    const graph::EdgeType& de = dg.edge_type(e);
    const graph::EdgeType& re = rg.edge_type(e);
    auto edges = [](const graph::EdgeType& et) {
      std::vector<std::string> out;
      for (graph::EdgeIndex i = 0; i < et.num_edges(); ++i) {
        std::string edge = std::to_string(et.source_vertex(i)) + ">" +
                           std::to_string(et.target_vertex(i));
        if (et.attr_table() != nullptr) {
          for (const auto& v : et.attr_table()->row(i)) {
            edge += "," + v.to_string();
          }
        }
        out.push_back(std::move(edge));
      }
      return out;
    };
    std::vector<std::string> dv = edges(de);
    std::vector<std::string> rv = edges(re);
    if (de.name() != "export" && de.name() != "type") {
      EXPECT_EQ(dv, rv) << de.name();
    }
    std::sort(dv.begin(), dv.end());
    std::sort(rv.begin(), rv.end());
    EXPECT_EQ(dv, rv) << de.name();
  }
}

// ---- CSR and key index: shared bases, small tails, folds ------------------
// A Reviews ingest extends ReviewVtx's key index and both CSR directions of
// `reviewFor` and `reviewer` by a tail over the previous epoch's base. A
// tail past 1/kTailFoldDivisor of its base folds into a new base.

/// Writes `n` Berlin review rows, ids from `first`, to `dir`/`name` and
/// returns the ingest statement. `state` drives the product and person
/// choices.
std::string review_batch(const TempDir& dir, const std::string& name,
                         const bsbm::GeneratorConfig& config,
                         std::size_t first, std::size_t n,
                         std::uint64_t& state) {
  auto next = [&](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  std::ostringstream csv;
  for (std::size_t k = 0; k < n; ++k) {
    csv << "r" << first + k << ",Review,"
        << bsbm::product_id(next(config.num_products)) << ","
        << bsbm::person_id(next(config.num_persons))
        << ",2008-03-01,T1,txt," << next(10) << ",,3,4,gen,2008-04-02\n";
  }
  write_text_file(dir.sub(name), csv.str());
  return "ingest table Reviews '" + name + "'";
}

/// The types a Reviews ingest extends, in one epoch.
struct ReviewTypes {
  const graph::VertexType* reviews;
  const graph::EdgeType* review_for;
  const graph::EdgeType* reviewer;
};

ReviewTypes review_types(const exec::ExecContext& ctx) {
  const graph::GraphView& g = ctx.graph;
  return {&g.vertex_type(g.find_vertex_type("ReviewVtx").value()),
          &g.edge_type(g.find_edge_type("reviewFor").value()),
          &g.edge_type(g.find_edge_type("reviewer").value())};
}

TEST(DeltaIngestTest, SmallIngestsShareBasesUntilTheyFold) {
  TempDir dir("tails");
  const bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(300, 5);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  auto made = bsbm::make_populated_database(config, options);
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  server::Database& db = **made;

  std::uint64_t state = 99;
  std::size_t csr_folds = 0;
  std::size_t key_folds = 0;
  for (std::size_t b = 0; b < 24; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::string ingest = review_batch(
        dir, "tail" + std::to_string(b) + ".csv", config, 60000 + 10 * b, 10,
        state);
    const EpochPin before = db.pin_epoch();
    auto r = db.run_script(ingest);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const EpochPin after = db.pin_epoch();
    const ReviewTypes old_types = review_types(before.ctx());
    const ReviewTypes new_types = review_types(after.ctx());

    // Below the threshold the new epoch reads the previous epoch's base
    // objects; a fold leaves a new base and an empty tail.
    if (!new_types.reviews->shares_key_base(*old_types.reviews)) {
      ++key_folds;
    }
    for (const auto& [was, now] :
         {std::pair{old_types.review_for, new_types.review_for},
          std::pair{old_types.reviewer, new_types.reviewer}}) {
      for (const bool forward : {true, false}) {
        const graph::CsrIndex& a = forward ? was->forward() : was->reverse();
        const graph::CsrIndex& c = forward ? now->forward() : now->reverse();
        if (!c.shares_base(a)) {
          ++csr_folds;
          EXPECT_EQ(c.tail_edges(), 0u);
        } else {
          EXPECT_EQ(c.tail_edges(), a.tail_edges() + 10);
        }
      }
    }
    if (b == 0) {
      EXPECT_TRUE(new_types.reviews->shares_key_base(*old_types.reviews));
      EXPECT_TRUE(new_types.review_for->forward().shares_base(
          old_types.review_for->forward()));
    }
  }
  // The first ingest shared every base; later ones folded each index.
  EXPECT_GE(key_folds, 2u);
  EXPECT_GE(csr_folds, 8u);
  const metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_EQ(metrics::value(m, "graph.key_index.folds"), key_folds);
  EXPECT_EQ(metrics::value(m, "graph.csr.folds"), csr_folds);
  EXPECT_EQ(metrics::value(m, "mvcc.ingest.rebuild"), 0u);

  // Delta == rebuild across the folds: same sizes (the gauges count the
  // equivalent flat structures), rows and snapshot bytes.
  const EpochPin pin = db.pin_epoch();
  std::uint64_t tail_edges = 0;
  for (graph::EdgeTypeId e = 0; e < pin.ctx().graph.num_edge_types(); ++e) {
    const graph::EdgeType& et = pin.ctx().graph.edge_type(e);
    tail_edges += et.forward().tail_edges() + et.reverse().tail_edges();
  }
  EXPECT_EQ(metrics::value(m, "graph.csr.tail_edges"), tail_edges);
  const exec::ExecContext rebuilt = rebuilt_copy(pin);
  EXPECT_EQ(context_fingerprint(pin.ctx()), context_fingerprint(rebuilt));
  EXPECT_EQ(store::encode_snapshot(pin.ctx(), 0),
            store::encode_snapshot(rebuilt, 0));
}

// Readers walk a pinned epoch's adjacency and probe its key index while a
// writer ingests through several folds. Every structure a reader sees is
// immutable, so each pinned epoch stays self-consistent (TSan runs this).
TEST(DeltaIngestTest, ReadersWalkPinnedEpochWhileWriterFolds) {
  TempDir dir("tail_readers");
  const bsbm::GeneratorConfig config = bsbm::GeneratorConfig::derive(200, 5);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  auto made = bsbm::make_populated_database(config, options);
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  server::Database& db = **made;
  std::uint64_t state = 7;
  std::vector<std::string> ingests;
  for (std::size_t b = 0; b < 16; ++b) {
    ingests.push_back(review_batch(dir, "rd" + std::to_string(b) + ".csv",
                                   config, 70000 + 12 * b, 12, state));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<int> walks{0};
  std::atomic<int> inconsistent{0};
  auto reader = [&] {
    bool first = true;
    while (!stop.load(std::memory_order_acquire)) {
      const EpochPin pin = db.pin_epoch();
      if (first) {
        started.fetch_add(1);
        first = false;
      }
      const ReviewTypes types = review_types(pin.ctx());
      for (const graph::EdgeType* et : {types.review_for, types.reviewer}) {
        std::size_t seen = 0;
        for (const bool forward : {true, false}) {
          const graph::CsrIndex& index =
              forward ? et->forward() : et->reverse();
          for (graph::VertexIndex v = 0; v < index.num_vertices(); ++v) {
            for (const graph::AdjacencyPart& part : index.adjacency(v)) {
              for (std::size_t i = 0; i < part.edges.size(); ++i) {
                const graph::EdgeIndex e = part.edges[i];
                const bool ok =
                    forward ? et->source_vertex(e) == v &&
                                  et->target_vertex(e) == part.neighbors[i]
                            : et->target_vertex(e) == v &&
                                  et->source_vertex(e) == part.neighbors[i];
                if (!ok) inconsistent.fetch_add(1);
                ++seen;
              }
            }
          }
        }
        if (seen != 2 * et->num_edges()) inconsistent.fetch_add(1);
      }
      const graph::VertexType& vt = *types.reviews;
      for (graph::VertexIndex v = 0; v < vt.num_vertices(); ++v) {
        if (vt.find_by_key(vt.source(), vt.representative_row(v),
                           vt.key_columns()) != v) {
          inconsistent.fetch_add(1);
        }
      }
      walks.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  // Every reader is inside its first walk before the writer starts; the
  // 16 ingests can otherwise finish before a reader is scheduled at all.
  while (started.load() < 3) std::this_thread::yield();
  for (const auto& ingest : ingests) {
    auto r = db.run_script(ingest);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_GT(walks.load(), 0);
  const metrics::Snapshot m = db.metrics_snapshot();
  EXPECT_GE(metrics::value(m, "graph.csr.folds"), 4u);
  EXPECT_GE(metrics::value(m, "graph.key_index.folds"), 1u);
}

// ---- snapshot_bytes from a pinned epoch ------------------------------------

TEST(SnapshotBytesTest, ServedFromPinnedEpoch) {
  TempDir dir("snapbytes");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  server::Database db(options);
  populate(db);

  std::uint64_t v1 = 0;
  const std::vector<std::uint8_t> before = db.snapshot_bytes(&v1);
  EpochPin pin = db.pin_epoch();

  const std::string csv = batch_csv(dir, "s", 0, 10);
  ASSERT_TRUE(db.run_script("ingest table People '" + csv + "'").is_ok());

  std::uint64_t v2 = 0;
  const std::vector<std::uint8_t> after = db.snapshot_bytes(&v2);
  EXPECT_GT(v2, v1);
  EXPECT_NE(before, after);

  // The pin taken before the ingest still encodes the old state. The raw
  // bytes may gain entries in the (database-global, append-only) string
  // pool section, so compare as decoded state: the pinned image must
  // restore exactly what `before` restores, and re-encoding the pin must
  // be stable now that the pool is quiescent.
  const std::vector<std::uint8_t> pinned = store::encode_snapshot(pin.ctx(), 0);
  EXPECT_EQ(pinned, store::encode_snapshot(pin.ctx(), 0));
  server::Database from_before;
  server::Database from_pin;
  ASSERT_TRUE(store::decode_snapshot(before, from_before.context()).is_ok());
  ASSERT_TRUE(store::decode_snapshot(pinned, from_pin.context()).is_ok());
  from_before.refresh_epoch();
  from_pin.refresh_epoch();
  EXPECT_EQ(state_fingerprint(from_pin), state_fingerprint(from_before));
  EXPECT_EQ((*from_pin.table("People"))->num_rows(), 4u);
}

// ---- Durability equivalence ------------------------------------------------

// Recovery (snapshot + WAL tail) must reproduce the pre-crash state
// byte-for-byte, with every batch applied through the same delta-or-
// rebuild decision the live path took.
TEST(DurabilityTest, RecoveryMatchesPrecrashPinnedSnapshot) {
  TempDir dir("dur_wal");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  options.store_dir = dir.sub("store");
  options.wal_fsync = false;

  std::vector<std::uint8_t> pre_crash;
  std::string pre_fingerprint;
  {
    server::Database db(options);
    ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    populate(db);
    for (int b = 0; b < 3; ++b) {
      const std::string csv = batch_csv(dir, "w", b, 12);
      ASSERT_TRUE(db.run_script("ingest table People '" + csv + "'").is_ok());
    }
    EXPECT_GE(metrics::value(db.metrics_snapshot(), "mvcc.ingest.delta"), 3u);
    pre_crash = db.snapshot_bytes();
    pre_fingerprint = state_fingerprint(db);
    // No checkpoint: destruction "crashes" with the whole history in the
    // WAL tail.
  }

  server::Database recovered(options);
  ASSERT_TRUE(recovered.store_status().is_ok())
      << recovered.store_status().to_string();
  EXPECT_EQ(recovered.snapshot_bytes(), pre_crash);
  EXPECT_EQ(state_fingerprint(recovered), pre_fingerprint);
  // Replay re-applied the batches with the identical per-record decision.
  EXPECT_GE(metrics::value(recovered.metrics_snapshot(), "mvcc.ingest.delta"),
            3u);
  auto q = recovered.run_script("select Person.age from graph "
                                "Person (name = 'w2_p3')");
  ASSERT_TRUE(q.is_ok()) << q.status().to_string();
  EXPECT_EQ(q->back().table->num_rows(), 1u);
}

// Same, with a checkpoint mid-sequence: the snapshot then encodes a
// delta-extended graph, and the remaining batch replays on top of the
// decoded image.
TEST(DurabilityTest, RecoveryAcrossMidSequenceCheckpoint) {
  TempDir dir("dur_ckpt");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  options.store_dir = dir.sub("store");
  options.wal_fsync = false;

  std::vector<std::uint8_t> pre_crash;
  std::string pre_fingerprint;
  {
    server::Database db(options);
    ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    populate(db);
    for (int b = 0; b < 2; ++b) {
      const std::string csv = batch_csv(dir, "c", b, 12);
      ASSERT_TRUE(db.run_script("ingest table People '" + csv + "'").is_ok());
    }
    const Status s = db.checkpoint();  // snapshot of a delta-built graph
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    const std::string csv = batch_csv(dir, "c", 2, 12);
    ASSERT_TRUE(db.run_script("ingest table People '" + csv + "'").is_ok());
    pre_crash = db.snapshot_bytes();
    pre_fingerprint = state_fingerprint(db);
  }

  server::Database recovered(options);
  ASSERT_TRUE(recovered.store_status().is_ok())
      << recovered.store_status().to_string();
  EXPECT_EQ(recovered.snapshot_bytes(), pre_crash);
  EXPECT_EQ(state_fingerprint(recovered), pre_fingerprint);
}

// ---- Mixed read/write soak -------------------------------------------------

// Writers publish epochs while eight readers run graph queries. Readers
// must (a) stay byte-identical to the serial baseline — the knows edges
// never change, only fresh unconnected Person vertices appear — and
// (b) only ever observe whole ingest batches, never a half-published
// state. Asserted lock-free via metrics: readers never take the writer
// lock.
TEST(MvccSoakTest, MixedReadWriteSoak) {
  TempDir dir("soak");
  write_people_csvs(dir);
  server::DatabaseOptions options;
  options.data_dir = dir.path;
  options.store_dir = dir.sub("store");
  options.wal_fsync = false;
  server::Database db(options);
  ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
  populate(db);

  constexpr int kWriters = 2;
  constexpr int kBatches = 3;
  constexpr int kBatchRows = 50;
  constexpr int kReaders = 8;
  std::vector<std::vector<std::string>> writer_csvs(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatches; ++b) {
      writer_csvs[w].push_back(
          batch_csv(dir, "soak" + std::to_string(w) + "_", b, kBatchRows));
    }
  }

  const std::string knows_query =
      "select A.name, B.name as friend from graph def A: Person() "
      "--knows--> def B: Person()";
  auto baseline_r = db.run_script(knows_query);
  ASSERT_TRUE(baseline_r.is_ok()) << baseline_r.status().to_string();
  const std::string baseline = render(baseline_r.value());
  const std::uint64_t base_rows =
      static_cast<std::uint64_t>((*db.table("People"))->num_rows());

  const std::uint64_t writes_before =
      metrics::value(db.metrics_snapshot(), "access.writer.acquired");
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> torn_reads{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        if (t % 2 == 0) {
          // Long match query: byte-identical regardless of concurrent
          // ingest (appended vertices have no knows edges).
          auto r = db.run_script(knows_query);
          if (!r.is_ok()) {
            failures.fetch_add(1);
          } else if (render(r.value()) != baseline) {
            mismatches.fetch_add(1);
          }
        } else {
          // Boundary probe on the mutated table: only whole batches are
          // legal observations.
          auto r = db.run_statement("select count(*) as n from table People");
          if (!r.is_ok()) {
            failures.fetch_add(1);
          } else {
            const auto n = static_cast<std::uint64_t>(
                r->table->value_at(0, 0).as_int64());
            if (n < base_rows || (n - base_rows) % kBatchRows != 0) {
              torn_reads.fetch_add(1);
            }
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const auto& csv : writer_csvs[w]) {
        auto r = db.run_script("ingest table People '" + csv + "'");
        if (!r.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  // Let readers observe the final state at least once more.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ((*db.table("People"))->num_rows(),
            base_rows + kWriters * kBatches * kBatchRows);

  // The lock-free contract: readers pinned epochs, never the writer lock
  // (exactly one acquisition per ingest script); writers published one
  // epoch per ingest script.
  EXPECT_EQ(metrics::value(db.metrics_snapshot(), "access.writer.acquired") -
                writes_before,
            static_cast<std::uint64_t>(kWriters * kBatches));
  const metrics::Snapshot e = db.metrics_snapshot();
  EXPECT_GE(metrics::value(e, "mvcc.pins.taken"), reads.load());
  EXPECT_GE(metrics::value(e, "mvcc.epochs.published"),
            static_cast<std::uint64_t>(kWriters * kBatches));
  EXPECT_EQ(metrics::value(e, "mvcc.pins.outstanding"), 0u);
}

}  // namespace
}  // namespace gems::mvcc
