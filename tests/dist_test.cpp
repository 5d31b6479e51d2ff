// Tests for the simulated cluster: messaging primitives, hash
// partitioning, and equivalence of distributed and single-node matching.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "bsbm/generator.hpp"
#include "dist/dist_matcher.hpp"
#include "dist/partition.hpp"
#include "dist/runtime.hpp"
#include "exec/lowering.hpp"
#include "graql/parser.hpp"

namespace gems::dist {
namespace {

// ---- Runtime primitives ------------------------------------------------------

TEST(RuntimeTest, PointToPointMessaging) {
  SimCluster cluster(3);
  std::array<std::atomic<int>, 3> received{};
  cluster.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::vector<std::uint8_t> payload;
      ByteWriter(payload).u32(42);
      ctx.send(1, 7, payload);
      ctx.send(2, 7, payload);
    } else {
      Message m = ctx.recv();
      EXPECT_EQ(m.from, 0);
      EXPECT_EQ(m.tag, 7);
      received[ctx.rank()] =
          static_cast<int>(payload_reader(m.payload).u32().value());
    }
  });
  EXPECT_EQ(received[1].load(), 42);
  EXPECT_EQ(received[2].load(), 42);
  EXPECT_EQ(cluster.total_messages(), 2u);
  EXPECT_EQ(cluster.total_bytes(), 8u);
}

TEST(RuntimeTest, BarrierSynchronizes) {
  SimCluster cluster(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  cluster.run([&](RankCtx& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    if (before.load() != 4) violated = true;
    ctx.barrier();  // reusable
    ctx.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(RuntimeTest, AllreduceSum) {
  SimCluster cluster(5);
  std::array<std::uint64_t, 5> results{};
  cluster.run([&](RankCtx& ctx) {
    results[ctx.rank()] =
        ctx.allreduce_sum(static_cast<std::uint64_t>(ctx.rank() + 1));
  });
  for (const auto r : results) EXPECT_EQ(r, 15u);  // 1+2+3+4+5
  // Messages: 4 up + 4 down.
  EXPECT_EQ(cluster.total_messages(), 8u);
}

TEST(RuntimeTest, SingleRankClusterWorks) {
  SimCluster cluster(1);
  std::uint64_t result = 0;
  cluster.run([&](RankCtx& ctx) {
    ctx.barrier();
    result = ctx.allreduce_sum(9);
  });
  EXPECT_EQ(result, 9u);
  EXPECT_EQ(cluster.total_messages(), 0u);
}

// ---- Fixture with generated Berlin data ----------------------------------------

class DistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = bsbm::make_populated_database(
        bsbm::GeneratorConfig::derive(150, 11));
    GEMS_CHECK_MSG(db.is_ok(), db.status().to_string().c_str());
    db_ = std::move(db).value().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  exec::ConstraintNetwork lower(const std::string& text) {
    auto stmt = graql::parse_statement(text);
    GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
    const auto& q = std::get<graql::GraphQueryStmt>(stmt.value());
    auto resolver = [](const std::string&) -> Result<exec::SubgraphPtr> {
      return not_found("none");
    };
    auto lowered =
        exec::lower_graph_query(q, db_->graph(), resolver, {}, db_->pool());
    GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
    return std::move(lowered.value().networks[0]);
  }

  static server::Database* db_;
};

server::Database* DistTest::db_ = nullptr;

// ---- Partitioning -----------------------------------------------------------

TEST_F(DistTest, PartitionCoversEveryVertexExactlyOnce) {
  const VertexPartition partition(db_->graph(), 4);
  std::size_t total_owned = 0;
  for (int r = 0; r < 4; ++r) total_owned += partition.owned_count(r);
  EXPECT_EQ(total_owned, db_->graph().total_vertices());

  // Ownership is consistent with the bitsets.
  for (graph::VertexTypeId t = 0; t < db_->graph().num_vertex_types(); ++t) {
    const std::size_t n = db_->graph().vertex_type(t).num_vertices();
    for (graph::VertexIndex v = 0; v < n; ++v) {
      int owners = 0;
      for (int r = 0; r < 4; ++r) {
        if (partition.owned(r, t).test(v)) {
          ++owners;
          EXPECT_EQ(partition.owner(t, v), r);
        }
      }
      EXPECT_EQ(owners, 1);
    }
  }
}

TEST_F(DistTest, PartitionIsRoughlyBalanced) {
  const VertexPartition partition(db_->graph(), 4);
  const double expected =
      static_cast<double>(db_->graph().total_vertices()) / 4.0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(partition.owned_count(r), expected * 0.6);
    EXPECT_LT(partition.owned_count(r), expected * 1.4);
  }
}

// ---- Distributed == single-node -----------------------------------------------

class DistMatchTest : public DistTest,
                      public ::testing::WithParamInterface<const char*> {};

TEST_P(DistMatchTest, MatchesSingleNodeResult) {
  const exec::ConstraintNetwork net = lower(GetParam());
  auto local = exec::match_network(net, db_->graph(), db_->pool());
  ASSERT_TRUE(local.is_ok()) << local.status().to_string();

  for (const std::size_t ranks : {1u, 2u, 4u}) {
    DistStats stats;
    auto dist = match_network_distributed(net, db_->graph(), db_->pool(),
                                          ranks, &stats);
    ASSERT_TRUE(dist.is_ok()) << dist.status().to_string();
    ASSERT_EQ(dist->domains.size(), local->domains.size());
    for (std::size_t v = 0; v < local->domains.size(); ++v) {
      for (const auto& [type, bits] : local->domains[v].sets) {
        auto it = dist->domains[v].sets.find(type);
        ASSERT_NE(it, dist->domains[v].sets.end());
        EXPECT_TRUE(bits == it->second)
            << "var " << v << " type " << type << " ranks " << ranks;
      }
    }
    ASSERT_EQ(dist->matched_edges.size(), local->matched_edges.size());
    for (std::size_t c = 0; c < local->matched_edges.size(); ++c) {
      EXPECT_EQ(dist->matched_edges[c].size(),
                local->matched_edges[c].size());
      for (const auto& [type, bits] : local->matched_edges[c]) {
        auto it = dist->matched_edges[c].find(type);
        ASSERT_NE(it, dist->matched_edges[c].end());
        EXPECT_TRUE(bits == it->second);
      }
    }
    EXPECT_EQ(stats.ranks, ranks);
    if (ranks == 1) {
      EXPECT_EQ(stats.activations, 0u);  // nothing is remote
    } else {
      EXPECT_GT(stats.messages, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, DistMatchTest,
    ::testing::Values(
        "select * from graph OfferVtx() --product--> ProductVtx() into "
        "subgraph g",
        "select * from graph ProductVtx(id = 'p0') --feature--> "
        "FeatureVtx() <--feature-- ProductVtx() into subgraph g",
        "select * from graph PersonVtx(country = 'US') <--reviewer-- "
        "ReviewVtx() --reviewFor--> ProductVtx() --producer--> "
        "ProducerVtx(country = 'DE') into subgraph g",
        "select * from graph ProductVtx(propertyNumeric_1 < 50) <--[]-- "
        "[ ] into subgraph g",
        "select * from graph def X: ProductVtx(propertyNumeric_1 < 200) "
        "--feature--> FeatureVtx() <--feature-- X into subgraph g",
        // Regex closures run distributed too (one BSP exchange per hop).
        "select * from graph TypeVtx() ( --subclass--> [ ] )+ into "
        "subgraph g",
        "select * from graph ProductVtx(id = 'p0') ( --[]--> [ ] ){2} "
        "into subgraph g",
        "select * from graph TypeVtx() ( --subclass--> [ ] )* "
        "--subclass--> TypeVtx(id = 't0') into subgraph g"));

TEST_F(DistTest, CommunicationGrowsWithRanks) {
  const exec::ConstraintNetwork net = lower(
      "select * from graph OfferVtx() --product--> ProductVtx() into "
      "subgraph g");
  std::uint64_t bytes2 = 0;
  std::uint64_t bytes4 = 0;
  DistStats stats;
  ASSERT_TRUE(match_network_distributed(net, db_->graph(), db_->pool(), 2,
                                        &stats)
                  .is_ok());
  bytes2 = stats.bytes;
  ASSERT_TRUE(match_network_distributed(net, db_->graph(), db_->pool(), 4,
                                        &stats)
                  .is_ok());
  bytes4 = stats.bytes;
  // More partitions cut more edges: communication volume must not shrink.
  EXPECT_GE(bytes4, bytes2);
  EXPECT_EQ(stats.bytes_per_rank.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.bytes_per_rank.begin(),
                            stats.bytes_per_rank.end(), std::uint64_t{0}),
            stats.bytes);
}

// ---- Rank payload decoding -------------------------------------------------

/// Little-endian u32 fields, as the rank body writes them.
std::vector<std::uint8_t> u32s(std::initializer_list<std::uint32_t> values) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  for (const std::uint32_t v : values) w.u32(v);
  return out;
}

TEST_F(DistTest, ActivationPayloadsDecodeOrFailTyped) {
  const graph::VertexTypeId product =
      *db_->graph().find_vertex_type("ProductVtx");
  const std::uint32_t n = static_cast<std::uint32_t>(
      db_->graph().vertex_type(product).num_vertices());
  exec::Domain support;
  support.sets.emplace(product, DynamicBitset(n));

  // Well-formed: two activations, plus one for a type outside the
  // support, which is skipped.
  ASSERT_TRUE(decode_activations(u32s({product, 3, product, n - 1, 999, 5}),
                                 support)
                  .is_ok());
  EXPECT_TRUE(support.sets.at(product).test(3));
  EXPECT_TRUE(support.sets.at(product).test(n - 1));
  EXPECT_EQ(support.sets.at(product).count(), 2u);

  std::vector<std::uint8_t> odd = u32s({product, 3});
  odd.pop_back();  // a partial record: 7 bytes
  std::vector<std::uint8_t> truncated = u32s({product, 3, product});
  for (const auto& bad : {odd, truncated, u32s({product, n}),
                          u32s({product, 0xFFFFFFFFu})}) {
    const Status s = decode_activations(bad, support);
    ASSERT_FALSE(s.is_ok()) << bad.size() << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kParseError);
    EXPECT_NE(s.message().find("byte offset"), std::string::npos)
        << s.to_string();
  }
}

TEST_F(DistTest, GatherPayloadsDecodeOrFailTyped) {
  const graph::VertexTypeId product =
      *db_->graph().find_vertex_type("ProductVtx");
  const std::uint32_t n = static_cast<std::uint32_t>(
      db_->graph().vertex_type(product).num_vertices());
  std::vector<exec::Domain> domains(2);
  for (exec::Domain& d : domains) {
    d.sets.emplace(product, DynamicBitset(n));
  }

  ASSERT_TRUE(decode_gather(u32s({1, product, 2, 4, 9}), domains).is_ok());
  EXPECT_TRUE(domains[1].sets.at(product).test(4));
  EXPECT_TRUE(domains[1].sets.at(product).test(9));
  EXPECT_EQ(domains[0].sets.at(product).count(), 0u);

  std::vector<std::uint8_t> odd = u32s({0, product, 1, 4});
  odd.pop_back();
  const std::vector<std::vector<std::uint8_t>> hostile = {
      odd,                               // partial index
      u32s({0, product, 2, 4}),          // count promises two indices
      u32s({0, product}),                // record without its count
      u32s({2, product, 1, 4}),          // unknown variable
      u32s({0xFFFFFFFFu, product, 0}),   // unknown variable, no indices
      u32s({0, product, 1, n}),          // index out of range
      u32s({0, product, 0xFFFFFFFFu}),   // hostile count
  };
  for (const auto& bad : hostile) {
    const Status s = decode_gather(bad, domains);
    ASSERT_FALSE(s.is_ok()) << bad.size() << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kParseError);
    EXPECT_NE(s.message().find("byte offset"), std::string::npos)
        << s.to_string();
  }
}

TEST_F(DistTest, DecodeDomainsChecksShapeBeforeAllocating) {
  const exec::ConstraintNetwork net = lower(
      "select * from graph OfferVtx() --product--> ProductVtx() into "
      "subgraph g");
  auto match = exec::match_network(net, db_->graph(), db_->pool());
  ASSERT_TRUE(match.is_ok()) << match.status().to_string();
  std::vector<std::uint8_t> bytes;
  encode_domains(match->domains, bytes);

  auto decoded = decode_domains(bytes, net, db_->graph());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->size(), match->domains.size());
  for (std::size_t v = 0; v < decoded->size(); ++v) {
    EXPECT_TRUE((*decoded)[v] == match->domains[v]) << "var " << v;
  }

  // Layout: u32 vars | per var: u32 sets | per set: u32 type, u64 size,
  // u32 count, indices. The first set's fields sit at bytes 8, 12, 20.
  auto rejected = [&](std::vector<std::uint8_t> bad, const char* what) {
    auto r = decode_domains(bad, net, db_->graph());
    ASSERT_FALSE(r.is_ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << what;
    EXPECT_NE(r.status().message().find(what), std::string::npos)
        << r.status().to_string();
  };
  auto patch = [&](std::size_t at, auto value) {
    std::vector<std::uint8_t> out = bytes;
    std::memcpy(out.data() + at, &value, sizeof(value));
    return out;
  };
  rejected(patch(0, static_cast<std::uint32_t>(net.num_vars() + 1)),
           "network variable count");
  const auto num_types =
      static_cast<std::uint32_t>(db_->graph().num_vertex_types());
  rejected(patch(8, num_types), "unknown vertex type");
  rejected(patch(12, std::uint64_t{1} << 40), "domain size");
}

TEST_F(DistTest, CrossPredicatesFallBackUnimplemented) {
  const exec::ConstraintNetwork net = lower(
      "select * from graph def p: ProductVtx() --feature--> FeatureVtx() "
      "<--feature-- ProductVtx(id <> p.id) into subgraph g");
  EXPECT_EQ(match_network_distributed(net, db_->graph(), db_->pool(), 2,
                                      nullptr)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace gems::dist
