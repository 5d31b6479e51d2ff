// Property tests for the path matcher: on randomly generated small
// attributed graphs and randomly generated path queries, the fixpoint
// matcher + enumerator must agree exactly with a brute-force reference
// that tries every assignment (the literal reading of Eq. 5). The
// distributed fixpoint must then agree with the single-node one on the
// same generated networks, at every rank count.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "dist/dist_matcher.hpp"
#include "exec/enumerate.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "graph/builder.hpp"
#include "graql/parser.hpp"
#include "relational/eval.hpp"
#include "storage/catalog.hpp"

namespace gems::exec {
namespace {

using graph::EdgeIndex;
using graph::EdgeType;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexRef;
using graph::VertexTypeId;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

/// A random attributed multigraph: `n_types` vertex types (each a table
/// with integer key `id` and integer attribute `w`), `n_edges` edge types
/// with random endpoints, built through the real DDL machinery so edges
/// carry a `w` attribute from their association tables.
struct RandomDb {
  StringPool pool;
  storage::TableCatalog tables;
  GraphView graph;
  std::vector<std::pair<VertexTypeId, VertexTypeId>> edge_endpoints;

  RandomDb(std::uint64_t seed, std::size_t n_types, std::size_t n_edges,
           std::size_t vertices_per_type, double edge_density,
           std::size_t min_vertices = 1) {
    Xoshiro256 rng(seed);
    for (std::size_t t = 0; t < n_types; ++t) {
      auto table = std::make_shared<Table>(
          "T" + std::to_string(t),
          Schema({{"id", DataType::int64()}, {"w", DataType::int64()}}),
          pool);
      const std::size_t n = min_vertices + rng.below(vertices_per_type);
      for (std::size_t v = 0; v < n; ++v) {
        table->append_row_unchecked(std::vector<Value>{
            Value::int64(static_cast<std::int64_t>(v)),
            Value::int64(rng.range(0, 9))});
      }
      GEMS_CHECK(tables.add(table).is_ok());
      graph::VertexDecl decl{"V" + std::to_string(t), {"id"},
                             "T" + std::to_string(t), nullptr};
      GEMS_CHECK(graph::add_vertex_type(graph, decl, tables, pool).is_ok());
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
      const VertexTypeId src =
          static_cast<VertexTypeId>(rng.below(n_types));
      const VertexTypeId dst =
          static_cast<VertexTypeId>(rng.below(n_types));
      auto assoc = std::make_shared<Table>(
          "A" + std::to_string(e),
          Schema({{"s", DataType::int64()},
                  {"d", DataType::int64()},
                  {"w", DataType::int64()}}),
          pool);
      const std::size_t ns = graph.vertex_type(src).num_vertices();
      const std::size_t nd = graph.vertex_type(dst).num_vertices();
      for (std::size_t i = 0; i < ns; ++i) {
        for (std::size_t j = 0; j < nd; ++j) {
          // Multigraph: occasionally two parallel edges.
          for (int k = 0; k < 2; ++k) {
            if (!rng.chance(k == 0 ? edge_density : edge_density / 4)) {
              continue;
            }
            assoc->append_row_unchecked(std::vector<Value>{
                Value::int64(static_cast<std::int64_t>(i)),
                Value::int64(static_cast<std::int64_t>(j)),
                Value::int64(rng.range(0, 9))});
          }
        }
      }
      GEMS_CHECK(tables.add(assoc).is_ok());
      using relational::BinaryOp;
      using relational::Expr;
      auto where = Expr::make_binary(
          BinaryOp::kAnd,
          Expr::make_binary(
              BinaryOp::kEq,
              Expr::make_column("A" + std::to_string(e), "s"),
              Expr::make_column("SRC", "id")),
          Expr::make_binary(
              BinaryOp::kEq,
              Expr::make_column("A" + std::to_string(e), "d"),
              Expr::make_column("DST", "id")));
      graph::EdgeDecl decl{"e" + std::to_string(e),
                           {"V" + std::to_string(src), "SRC"},
                           {"V" + std::to_string(dst), "DST"},
                           {"A" + std::to_string(e)},
                           where};
      GEMS_CHECK(graph::add_edge_type(graph, decl, tables, pool).is_ok());
      edge_endpoints.emplace_back(src, dst);
    }
  }
};

/// Random linear query over the random graph: picks a random walk over
/// edge types (respecting endpoints, random direction), attaches random
/// conditions, occasionally a foreach cycle closure or a variant step.
std::string random_query(RandomDb& db, Xoshiro256& rng, int max_steps) {
  std::string query = "select * from graph ";
  // Start at a random edge's source (forward) or target (reverse).
  const std::size_t e0 = rng.below(db.edge_endpoints.size());
  bool forward = rng.chance(0.5);
  VertexTypeId current = forward ? db.edge_endpoints[e0].first
                                 : db.edge_endpoints[e0].second;
  auto step_condition = [&](bool allow) -> std::string {
    if (!allow || !rng.chance(0.5)) return "()";
    const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
    return std::string("(w ") + ops[rng.below(6)] + " " +
           std::to_string(rng.range(0, 9)) + ")";
  };
  const bool use_foreach = rng.chance(0.25);
  const VertexTypeId head_type = current;
  std::string head = "V" + std::to_string(current);
  if (use_foreach) head = "foreach z: " + head;
  query += head + step_condition(true);

  const int steps = 1 + static_cast<int>(rng.below(max_steps));
  std::size_t edge = e0;
  for (int s = 0; s < steps; ++s) {
    // Pick an edge type leaving/entering `current`.
    std::vector<std::pair<std::size_t, bool>> options;
    for (std::size_t e = 0; e < db.edge_endpoints.size(); ++e) {
      if (db.edge_endpoints[e].first == current) options.emplace_back(e, true);
      if (db.edge_endpoints[e].second == current) {
        options.emplace_back(e, false);
      }
    }
    if (options.empty()) break;
    std::tie(edge, forward) = options[rng.below(options.size())];
    const VertexTypeId next = forward ? db.edge_endpoints[edge].second
                                      : db.edge_endpoints[edge].first;
    const std::string econd = step_condition(true);
    const std::string ename =
        "e" + std::to_string(edge) + (econd == "()" ? "" : econd);
    if (forward) {
      query += " --" + ename + "--> ";
    } else {
      query += " <--" + ename + "-- ";
    }
    current = next;
    if (use_foreach && s == steps - 1 && current == head_type &&
        rng.chance(0.8)) {
      query += "z";  // element-wise cycle closure (Eq. 8)
    } else {
      query += "V" + std::to_string(current) + step_condition(true);
    }
  }
  query += " into table R";
  return query;
}

/// Brute-force reference: tries every assignment of vertices to variables
/// and every edge choice, checking constraints literally.
struct BruteForce {
  const ConstraintNetwork& net;
  const GraphView& graph;
  const StringPool& pool;

  std::vector<std::set<VertexRef>> used_per_var;
  std::uint64_t rows = 0;

  explicit BruteForce(const ConstraintNetwork& n, const GraphView& g,
                      const StringPool& p)
      : net(n), graph(g), pool(p), used_per_var(n.num_vars()) {}

  void run() {
    std::vector<VertexRef> assignment(net.num_vars());
    std::vector<graph::EdgeRef> edges(net.edges.size());
    std::vector<relational::RowCursor> cursors(kEdgeSourceBase +
                                               net.edges.size());
    assign(0, assignment, edges, cursors);
  }

  void assign(std::size_t var, std::vector<VertexRef>& assignment,
              std::vector<graph::EdgeRef>& edges,
              std::vector<relational::RowCursor>& cursors) {
    if (var == net.num_vars()) {
      try_edges(0, assignment, edges, cursors);
      return;
    }
    for (const VertexTypeId t : net.vars[var].types) {
      const auto& vt = graph.vertex_type(t);
      for (VertexIndex v = 0; v < vt.num_vertices(); ++v) {
        if (!vertex_passes(net, graph, pool, static_cast<int>(var), t, v)) {
          continue;
        }
        assignment[var] = VertexRef{t, v};
        cursors[var] = {&vt.source(), vt.representative_row(v)};
        assign(var + 1, assignment, edges, cursors);
      }
    }
  }

  void try_edges(std::size_t c, std::vector<VertexRef>& assignment,
                 std::vector<graph::EdgeRef>& edges,
                 std::vector<relational::RowCursor>& cursors) {
    if (c == net.edges.size()) {
      finish(assignment, cursors);
      return;
    }
    const EdgeConstraint& con = net.edges[c];
    const VertexRef left = assignment[con.left_var];
    const VertexRef right = assignment[con.right_var];
    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph.edge_type(move.type);
      const VertexRef& src = move.forward ? left : right;
      const VertexRef& dst = move.forward ? right : left;
      if (src.type != et.source_type() || dst.type != et.target_type()) {
        continue;
      }
      for (EdgeIndex e = 0; e < et.num_edges(); ++e) {
        if (et.source_vertex(e) != src.index ||
            et.target_vertex(e) != dst.index) {
          continue;
        }
        if (!con.self_conds.empty()) {
          GEMS_CHECK(et.attr_table() != nullptr);
          cursors[kEdgeSourceBase + c] = {et.attr_table(), e};
          bool ok = true;
          for (const auto& pred : con.self_conds) {
            if (!relational::eval_predicate(*pred, cursors, pool)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
        }
        edges[c] = {move.type, e};
        try_edges(c + 1, assignment, edges, cursors);
      }
    }
  }

  void finish(std::vector<VertexRef>& assignment,
              std::vector<relational::RowCursor>& cursors) {
    for (const CrossPred& pred : net.cross_preds) {
      if (!relational::eval_predicate(*pred.pred, cursors, pool)) return;
    }
    ++rows;
    for (std::size_t v = 0; v < assignment.size(); ++v) {
      used_per_var[v].insert(assignment[v]);
    }
  }
};

class MatcherPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MatcherPropertyTest, FixpointAndEnumeratorMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 1000003 + 17);
  RandomDb db(seed, /*n_types=*/2 + rng.below(3),
              /*n_edges=*/2 + rng.below(4),
              /*vertices_per_type=*/8, /*edge_density=*/0.25);

  for (int q = 0; q < 8; ++q) {
    const std::string query_text = random_query(db, rng, 3);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + query_text);

    auto stmt = graql::parse_statement(query_text);
    ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
    const auto& gq = std::get<graql::GraphQueryStmt>(stmt.value());
    auto resolver = [](const std::string&) -> Result<SubgraphPtr> {
      return not_found("none");
    };
    auto lowered =
        lower_graph_query(gq, db.graph, resolver, {}, db.pool);
    ASSERT_TRUE(lowered.is_ok()) << lowered.status().to_string();
    const ConstraintNetwork& net = lowered->networks[0];
    ASSERT_TRUE(net.groups.empty());  // random queries have no groups

    BruteForce brute(net, db.graph, db.pool);
    brute.run();

    auto match = match_network(net, db.graph, db.pool);
    ASSERT_TRUE(match.is_ok()) << match.status().to_string();

    // (a) The enumerator emits exactly the brute-force row count and
    //     touches exactly the brute-force per-variable vertex sets.
    std::vector<std::set<VertexRef>> enum_used(net.num_vars());
    std::uint64_t enum_rows = 0;
    auto emit = [&](std::span<const VertexRef> vertices,
                    std::span<const graph::EdgeRef>) {
      ++enum_rows;
      for (std::size_t v = 0; v < vertices.size(); ++v) {
        enum_used[v].insert(vertices[v]);
      }
      return true;
    };
    auto stats = enumerate_assignments(net, db.graph, db.pool, *match, {},
                                       emit);
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    EXPECT_EQ(enum_rows, brute.rows);
    for (std::size_t v = 0; v < net.num_vars(); ++v) {
      EXPECT_EQ(enum_used[v], brute.used_per_var[v]) << "var " << v;
    }

    // Enumeration-order independence: pivoting the DFS at any variable
    // (the planner's prerogative, Sec. III-B) must not change the row
    // count or the per-variable sets.
    for (int root = 0; root < static_cast<int>(net.num_vars()); ++root) {
      std::uint64_t rooted_rows = 0;
      std::vector<std::set<VertexRef>> rooted_used(net.num_vars());
      EnumOptions options;
      options.root_var = root;
      auto rooted_emit = [&](std::span<const VertexRef> vertices,
                             std::span<const graph::EdgeRef>) {
        ++rooted_rows;
        for (std::size_t v = 0; v < vertices.size(); ++v) {
          rooted_used[v].insert(vertices[v]);
        }
        return true;
      };
      auto rooted_stats = enumerate_assignments(net, db.graph, db.pool,
                                                *match, options,
                                                rooted_emit);
      ASSERT_TRUE(rooted_stats.is_ok());
      EXPECT_EQ(rooted_rows, brute.rows) << "root " << root;
      for (std::size_t v = 0; v < net.num_vars(); ++v) {
        EXPECT_EQ(rooted_used[v], brute.used_per_var[v])
            << "root " << root << " var " << v;
      }
    }

    // (b) For tree networks without cross predicates, the fixpoint
    //     domains are exact: they contain precisely the brute-force
    //     per-variable sets.
    if (net.tree_exact && net.set_eqs.empty()) {
      for (std::size_t v = 0; v < net.num_vars(); ++v) {
        std::set<VertexRef> domain_set;
        for (const auto& [type, bits] : match->domains[v].sets) {
          bits.for_each([&](std::size_t i) {
            domain_set.insert(
                VertexRef{type, static_cast<VertexIndex>(i)});
          });
        }
        EXPECT_EQ(domain_set, brute.used_per_var[v]) << "var " << v;
      }
    } else {
      // Otherwise the domains are a sound over-approximation.
      for (std::size_t v = 0; v < net.num_vars(); ++v) {
        for (const VertexRef& ref : brute.used_per_var[v]) {
          const auto it = match->domains[v].sets.find(ref.type);
          ASSERT_NE(it, match->domains[v].sets.end());
          EXPECT_TRUE(it->second.test(ref.index)) << "var " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MatcherPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- Distributed == single-node on generated networks ----------------------

ConstraintNetwork lower_query(const std::string& text, const GraphView& graph,
                              StringPool& pool) {
  auto stmt = graql::parse_statement(text);
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& gq = std::get<graql::GraphQueryStmt>(stmt.value());
  auto resolver = [](const std::string&) -> Result<SubgraphPtr> {
    return not_found("none");
  };
  auto lowered = lower_graph_query(gq, graph, resolver, {}, pool);
  GEMS_CHECK_MSG(lowered.is_ok(), lowered.status().to_string().c_str());
  return std::move(lowered.value().networks[0]);
}

MatchResult must_match(const ConstraintNetwork& net, const GraphView& graph,
                       const StringPool& pool) {
  auto r = match_network(net, graph, pool);
  GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
  return std::move(r).value();
}

//
// The rank body runs the same fixpoint over a hash-partitioned frontier
// (DESIGN.md §5h), so on every network dist::distributable accepts it must
// reach the single-node domains and matched edges at every rank count.

/// Random regex-group query: a start step, then a one- or two-hop group
/// body of forward or reversed hops with random edge and vertex
/// conditions (sometimes variant steps instead), a random quantifier, and
/// sometimes a trailing edge step. The last hop prefers an edge back to
/// the start type so that closures iterate.
std::string random_group_query(RandomDb& db, Xoshiro256& rng) {
  auto condition = [&]() -> std::string {
    if (!rng.chance(0.5)) return "()";
    const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
    return std::string("(w ") + ops[rng.below(6)] + " " +
           std::to_string(rng.range(0, 9)) + ")";
  };
  auto touching = [&](VertexTypeId type) {
    std::vector<std::pair<std::size_t, bool>> options;
    for (std::size_t e = 0; e < db.edge_endpoints.size(); ++e) {
      if (db.edge_endpoints[e].first == type) options.emplace_back(e, true);
      if (db.edge_endpoints[e].second == type) options.emplace_back(e, false);
    }
    return options;
  };
  auto far_end = [&](std::pair<std::size_t, bool> option) {
    const auto& [src, dst] = db.edge_endpoints[option.first];
    return option.second ? dst : src;
  };
  auto edge_step = [&](std::pair<std::size_t, bool> option, bool variant) {
    const std::string label =
        variant ? "[]" : "e" + std::to_string(option.first) + condition();
    return option.second ? " --" + label + "--> " : " <--" + label + "-- ";
  };

  const std::size_t e0 = rng.below(db.edge_endpoints.size());
  const VertexTypeId head = rng.chance(0.5) ? db.edge_endpoints[e0].first
                                            : db.edge_endpoints[e0].second;
  std::string query =
      "select * from graph V" + std::to_string(head) + condition() + " (";
  VertexTypeId current = head;
  const int hops = 1 + static_cast<int>(rng.below(2));
  for (int h = 0; h < hops; ++h) {
    auto options = touching(current);
    if (h == hops - 1 && rng.chance(0.7)) {
      std::vector<std::pair<std::size_t, bool>> closing;
      for (const auto& o : options) {
        if (far_end(o) == head) closing.push_back(o);
      }
      if (!closing.empty()) options = std::move(closing);
    }
    const auto option = options[rng.below(options.size())];
    current = far_end(option);
    query += edge_step(option, rng.chance(0.15));
    query += rng.chance(0.15) ? "[ ]"
                              : "V" + std::to_string(current) + condition();
  }
  const char* quants[] = {"+", "*", "{1}", "{2}", "{3}"};
  query += " )";
  query += quants[rng.below(5)];
  if (rng.chance(0.3)) {
    const auto options = touching(current);
    const auto option = options[rng.below(options.size())];
    query += edge_step(option, /*variant=*/false) + "V" +
             std::to_string(far_end(option)) + condition();
  }
  return query + " into table R";
}

/// Runs `net` through match_network_distributed at 1-4 ranks: domains and
/// matched edges must equal match_network's. Returns false, checking
/// nothing, when the network is not distributable.
bool expect_distributed_matches_local(const ConstraintNetwork& net,
                                      const GraphView& graph,
                                      const StringPool& pool) {
  if (!dist::distributable(net).is_ok()) return false;
  const MatchResult local = must_match(net, graph, pool);
  for (std::size_t ranks = 1; ranks <= 4; ++ranks) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    auto dist = dist::match_network_distributed(net, graph, pool, ranks,
                                                nullptr);
    EXPECT_TRUE(dist.is_ok()) << dist.status().to_string();
    if (!dist.is_ok()) return true;
    EXPECT_EQ(dist->domains.size(), local.domains.size());
    for (std::size_t v = 0;
         v < std::min(dist->domains.size(), local.domains.size()); ++v) {
      EXPECT_TRUE(dist->domains[v] == local.domains[v]) << "var " << v;
    }
    EXPECT_TRUE(dist->matched_edges == local.matched_edges);
  }
  return true;
}

/// One oracle case: MatcherPropertyTest's small graphs, or (`wide`) graphs
/// whose types all pass 520 vertices, so a rank's frontier spans many
/// bitset words.
struct DistCase {
  bool wide = false;
  std::uint64_t seed = 0;
};

void PrintTo(const DistCase& c, std::ostream* os) {
  *os << (c.wide ? "wide" : "small") << " seed " << c.seed;
}

std::vector<DistCase> dist_cases(bool wide, std::uint64_t seeds) {
  std::vector<DistCase> cases;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    cases.push_back({wide, seed});
  }
  return cases;
}

class DistMatchPropertyTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistMatchPropertyTest, MatchesLocalAtOneToFourRanks) {
  const auto [wide, seed] = GetParam();
  // The small graph and linear queries are drawn as MatcherPropertyTest
  // draws them; generated regex groups follow.
  std::optional<RandomDb> db;
  Xoshiro256 rng(wide ? seed * 7919 + 3 : seed * 1000003 + 17);
  if (wide) {
    db.emplace(seed, /*n_types=*/2 + rng.below(2),
               /*n_edges=*/3 + rng.below(3), /*vertices_per_type=*/500,
               /*edge_density=*/0.01, /*min_vertices=*/520);
  } else {
    db.emplace(seed, /*n_types=*/2 + rng.below(3),
               /*n_edges=*/2 + rng.below(4), /*vertices_per_type=*/8,
               /*edge_density=*/0.25);
  }
  const int linear = wide ? 4 : 8;
  const int groups = 4;
  int distributed = 0;
  for (int q = 0; q < linear + groups; ++q) {
    const std::string query_text =
        q < linear ? random_query(*db, rng, 3) : random_group_query(*db, rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + query_text);
    const ConstraintNetwork net = lower_query(query_text, db->graph, db->pool);
    if (expect_distributed_matches_local(net, db->graph, db->pool)) {
      ++distributed;
    }
  }
  // Generated queries carry self conditions only, so every network is
  // distributable; a shortfall means the oracle checked less than it says.
  EXPECT_EQ(distributed, linear + groups);
}

INSTANTIATE_TEST_SUITE_P(SmallGraphs, DistMatchPropertyTest,
                         ::testing::ValuesIn(dist_cases(false, 40)));
INSTANTIATE_TEST_SUITE_P(WideGraphs, DistMatchPropertyTest,
                         ::testing::ValuesIn(dist_cases(true, 5)));

}  // namespace
}  // namespace gems::exec
