// Tests for gems::diag — the multi-pass static analyzer's structured
// diagnostics: one golden case per semantic pass (empty intersections,
// constant folding, label analysis, closure cost, cross-statement
// dependences), multi-error collection with exact spans and stable GQL
// codes, the byte codec, the clang-style renderer, byte-identity of the
// net `check` verb against a local Database::check, and lint == runtime:
// pass 2 warnings, type errors and name scopes against real runs, and
// generated constant folds against the kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bsbm/generator.hpp"
#include "common/check.hpp"
#include "graql/analyzer.hpp"
#include "graql/diag.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "relational/expr_rules.hpp"
#include "relational/operators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "server/database.hpp"

namespace gems::graql {
namespace {

using storage::DataType;
using storage::Schema;
using storage::Value;

std::vector<Diagnostic> with_code(const std::vector<Diagnostic>& diags,
                                  DiagCode code) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

/// Miniature Berlin-style catalog, matching graql_test's AnalyzerTest so
/// the collect-mode results can be compared against the legacy wrappers.
class DiagTest : public ::testing::Test {
 protected:
  DiagTest() {
    GEMS_CHECK(catalog_
                   .add_table("Products",
                              Schema({{"id", DataType::varchar(10)},
                                      {"producer", DataType::varchar(10)},
                                      {"price", DataType::float64()},
                                      {"date", DataType::date()}}))
                   .is_ok());
    GEMS_CHECK(catalog_
                   .add_table("Producers",
                              Schema({{"id", DataType::varchar(10)},
                                      {"country", DataType::varchar(10)}}))
                   .is_ok());
    GEMS_CHECK(catalog_
                   .add_table("Types",
                              Schema({{"id", DataType::varchar(10)},
                                      {"parent", DataType::varchar(10)}}))
                   .is_ok());
    seed_ok("create vertex ProductVtx(id) from table Products");
    seed_ok("create vertex ProducerVtx(id) from table Producers");
    seed_ok("create vertex TypeVtx(id) from table Types");
    seed_ok(
        "create edge producer with vertices (ProductVtx, ProducerVtx) "
        "where ProductVtx.producer = ProducerVtx.id");
    seed_ok(
        "create edge subclass with vertices (TypeVtx as A, TypeVtx as B) "
        "where A.parent = B.id");
  }

  void seed_ok(const std::string& text) {
    auto stmt = parse_statement(text);
    GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
    const Status s = analyze_statement(stmt.value(), catalog_);
    GEMS_CHECK_MSG(s.is_ok(), s.to_string().c_str());
  }

  /// Collect-mode analysis of a whole script against the fixture catalog.
  std::vector<Diagnostic> lint(const std::string& text,
                               const AnalyzeOptions& opts = {}) {
    DiagnosticEngine diags;
    Script script = parse_script_collect(text, diags);
    if (!diags.has_errors()) {
      analyze_script_collect(script, catalog_, diags, opts);
    }
    return diags.take();
  }

  MetaCatalog catalog_;
};

// ---- Pass 1: statically-empty type intersections (GQL0042) -----------------

TEST_F(DiagTest, Pass1EmptyIntersectionOnVariantStep) {
  // 'producer' pins the '[ ]' to ProducerVtx; 'producer' leaving it again
  // (forward) demands ProductVtx. The variant step is pinched empty — a
  // query the fail-stop analyzer accepted and matched zero rows on.
  const auto diags = lint(
      "select * from graph\n"
      "  ProductVtx ()\n"
      "  --producer--> [ ]\n"
      "  --producer--> ProducerVtx ()\n"
      "into subgraph G");
  const auto hits = with_code(diags, DiagCode::kEmptyIntersection);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(hits[0].span.line, 3u);
  EXPECT_EQ(hits[0].span.column, 17u);  // the '[' of '[ ]'
  EXPECT_NE(hits[0].message.find("statically empty"), std::string::npos);
  EXPECT_FALSE(hits[0].fixit.empty());
  EXPECT_EQ(diag_code_name(hits[0].code), "GQL0042");
}

TEST_F(DiagTest, Pass1ConsistentPinIsClean) {
  // Same shape, but the second edge is reversed: it *arrives* at the
  // pinned ProducerVtx, so the intersection is non-empty.
  const auto diags = lint(
      "select * from graph\n"
      "  ProductVtx () --producer--> [ ] <--producer-- ProductVtx ()\n"
      "into subgraph G");
  EXPECT_TRUE(with_code(diags, DiagCode::kEmptyIntersection).empty());
  EXPECT_TRUE(diags.empty()) << render_diagnostics(diags, "", false);
}

// ---- Pass 2: constant-folded predicates (GQL0050/GQL0051) ------------------

TEST_F(DiagTest, Pass2AlwaysFalseCondition) {
  const auto diags = lint(
      "select * from graph\n"
      "  ProductVtx (1 = 2) --producer--> ProducerVtx ()\n"
      "into subgraph G");
  const auto hits = with_code(diags, DiagCode::kAlwaysFalse);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].span.line, 2u);
  EXPECT_NE(hits[0].message.find("always false"), std::string::npos);
  EXPECT_EQ(diag_code_name(hits[0].code), "GQL0050");
}

TEST_F(DiagTest, Pass2AlwaysTrueAndShortCircuit) {
  // 'true or X' folds true whatever X is.
  const auto diags = lint(
      "select * from table Products where true or price > 50.0");
  const auto hits = with_code(diags, DiagCode::kAlwaysTrue);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(diag_code_name(hits[0].code), "GQL0051");
}

TEST_F(DiagTest, Pass2NonConstantPredicateIsSilent) {
  const auto diags =
      lint("select * from table Products where price > 50.0");
  EXPECT_TRUE(diags.empty()) << render_diagnostics(diags, "", false);
}

// ---- Pass 3: labels and captures (GQL0060/61/62) ---------------------------

TEST_F(DiagTest, Pass3UnusedLabelWarns) {
  const auto diags = lint(
      "select ProducerVtx.country from graph\n"
      "  def y: ProductVtx () --producer--> ProducerVtx ()\n"
      "into table R");
  const auto hits = with_code(diags, DiagCode::kUnusedLabel);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].span.line, 2u);
  EXPECT_NE(hits[0].message.find("'y'"), std::string::npos);
  EXPECT_NE(hits[0].fixit.find("def y:"), std::string::npos);
}

TEST_F(DiagTest, Pass3UsedLabelIsSilent) {
  const auto diags = lint(
      "select y.id from graph\n"
      "  def y: ProductVtx () --producer--> ProducerVtx ()\n"
      "into table R");
  EXPECT_TRUE(with_code(diags, DiagCode::kUnusedLabel).empty());
}

TEST_F(DiagTest, Pass3DuplicateLabelIsError) {
  const auto diags = lint(
      "select y.id from graph\n"
      "  def y: ProductVtx () --producer--> def y: ProducerVtx ()\n"
      "into table R");
  const auto hits = with_code(diags, DiagCode::kDuplicateLabel);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(hits[0].status_code, StatusCode::kAlreadyExists);
}

TEST_F(DiagTest, Pass3LabelShadowingTypeIsError) {
  const auto diags = lint(
      "select * from graph\n"
      "  def TypeVtx: ProductVtx () --producer--> ProducerVtx ()\n"
      "into subgraph G");
  const auto hits = with_code(diags, DiagCode::kLabelShadowsType);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("shadows"), std::string::npos);
}

// ---- Pass 4: closure cost from degree statistics (GQL0070) -----------------

AnalyzeOptions dense_subclass_stats() {
  AnalyzeOptions opts;
  opts.edge_stats =
      [](const std::string& edge) -> std::optional<EdgeDegreeInfo> {
    if (edge != "subclass") return std::nullopt;
    EdgeDegreeInfo info;
    info.num_edges = 100000;
    info.avg_out = 12.5;
    info.max_out = 4000;
    info.avg_in = 1.0;
    info.max_in = 2;
    return info;
  };
  return opts;
}

TEST_F(DiagTest, Pass4WarnsOnUnboundedClosureOverDenseEdge) {
  const std::string query =
      "select * from graph\n"
      "  TypeVtx () ( --subclass--> TypeVtx () )+\n"
      "into subgraph G";
  // Without statistics the pass is silent — this is exactly the query the
  // pre-diag analyzer accepted without a word.
  EXPECT_TRUE(lint(query).empty());
  const auto diags = lint(query, dense_subclass_stats());
  const auto hits = with_code(diags, DiagCode::kCostlyClosure);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].span.line, 2u);
  EXPECT_NE(hits[0].message.find("subclass"), std::string::npos);
  EXPECT_NE(hits[0].fixit.find("{n}"), std::string::npos);
  EXPECT_EQ(diag_code_name(hits[0].code), "GQL0070");
}

TEST_F(DiagTest, Pass4DirectionAware) {
  // Reversed traversal uses in-degrees, which are tiny here: no warning.
  const auto diags = lint(
      "select * from graph\n"
      "  TypeVtx () ( <--subclass-- TypeVtx () )+\n"
      "into subgraph G",
      dense_subclass_stats());
  EXPECT_TRUE(with_code(diags, DiagCode::kCostlyClosure).empty());
}

TEST_F(DiagTest, Pass4BoundedRepetitionIsSilent) {
  const auto diags = lint(
      "select * from graph\n"
      "  TypeVtx () ( --subclass--> TypeVtx () ){3}\n"
      "into subgraph G",
      dense_subclass_stats());
  EXPECT_TRUE(with_code(diags, DiagCode::kCostlyClosure).empty());
}

// ---- Pass 5: cross-statement dependences (GQL0080/GQL0081) -----------------

TEST_F(DiagTest, Pass5UseBeforeIngest) {
  const auto diags = lint(
      "create table Fresh(id varchar(10));\n"
      "select * from table Fresh");
  const auto hits = with_code(diags, DiagCode::kUseBeforeIngest);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].span.line, 2u);
  EXPECT_NE(hits[0].fixit.find("ingest table Fresh"), std::string::npos);
}

TEST_F(DiagTest, Pass5IngestClearsTheWarning) {
  const auto diags = lint(
      "create table Fresh(id varchar(10));\n"
      "ingest table Fresh 'fresh.csv';\n"
      "select * from table Fresh");
  EXPECT_TRUE(diags.empty()) << render_diagnostics(diags, "", false);
}

TEST_F(DiagTest, Pass5PreexistingTablesAreExempt) {
  // Products was created before this script ran (e.g. a recovered store);
  // the analyzer cannot know it is empty, so it must stay quiet.
  EXPECT_TRUE(lint("select * from table Products").empty());
}

TEST_F(DiagTest, Pass5OverwrittenResult) {
  const auto diags = lint(
      "select id from table Products into table R;\n"
      "select id from table Producers into table R");
  const auto hits = with_code(diags, DiagCode::kOverwrittenResult);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].span.line, 2u);
  EXPECT_NE(hits[0].message.find("statement 1"), std::string::npos);
}

TEST_F(DiagTest, Pass5ReadBetweenWritesIsSilent) {
  const auto diags = lint(
      "select id from table Products into table R;\n"
      "select * from table R;\n"
      "select id from table Producers into table R");
  EXPECT_TRUE(with_code(diags, DiagCode::kOverwrittenResult).empty());
}

// ---- Multi-error collection ------------------------------------------------

TEST_F(DiagTest, CollectsEveryProblemInOneCall) {
  // Three distinct defects in one script: an unknown edge type, a select
  // from an unknown table, and an edge used against its direction.
  const auto diags = lint(
      "select * from graph\n"
      "  ProductVtx () --nosuchedge--> ProducerVtx ()\n"
      "into table T9;\n"
      "select nosuchcol from table NoTable;\n"
      "select * from graph\n"
      "  ProducerVtx () --producer--> ProductVtx ()\n"
      "into subgraph G9");
  ASSERT_EQ(with_code(diags, DiagCode::kUnknownName).size(), 2u);
  ASSERT_EQ(with_code(diags, DiagCode::kEndpointMismatch).size(), 1u);
  std::size_t errors = 0;
  for (const auto& d : diags) {
    if (d.severity == Severity::kError) ++errors;
  }
  EXPECT_GE(errors, 3u);
  // Source order, with correct per-statement spans.
  EXPECT_EQ(with_code(diags, DiagCode::kUnknownName)[0].span.line, 2u);
  EXPECT_EQ(with_code(diags, DiagCode::kUnknownName)[1].span.line, 4u);
  EXPECT_EQ(with_code(diags, DiagCode::kEndpointMismatch)[0].span.line, 6u);
}

TEST_F(DiagTest, EachBadGraphSelectTargetIsReportedAtItsSpan) {
  // One error per bad target, at the target, with the code of its fault:
  // an unknown attribute, an unknown step, an attribute of a step without
  // attributes, and `*` over a variant step.
  const auto diags = lint(
      "select ProductVtx.nosuch,\n"
      "       NoStep.id,\n"
      "       producer.x\n"
      "from graph ProductVtx() --producer--> ProducerVtx()\n"
      "into table T1;\n"
      "select * from graph ProductVtx() --producer--> [ ] into table T2");
  std::vector<Diagnostic> errors;
  for (const auto& d : diags) {
    if (d.severity == Severity::kError) errors.push_back(d);
  }
  ASSERT_EQ(errors.size(), 4u) << render_diagnostics(diags, "", false);
  const struct {
    const char* code;
    StatusCode status;
    std::uint32_t line;
    std::uint32_t column;
  } want[] = {
      {"GQL0103", StatusCode::kNotFound, 1, 8},
      {"GQL0100", StatusCode::kNotFound, 2, 8},
      {"GQL0200", StatusCode::kTypeError, 3, 8},
      {"GQL0104", StatusCode::kTypeError, 6, 8},
  };
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(diag_code_name(errors[i].code), want[i].code) << i;
    EXPECT_EQ(errors[i].status_code, want[i].status) << i;
    EXPECT_EQ(errors[i].span.line, want[i].line) << i;
    EXPECT_EQ(errors[i].span.column, want[i].column) << i;
  }
}

TEST_F(DiagTest, LegacyWrapperReturnsFirstErrorWithStatementContext) {
  DiagnosticEngine diags;
  Script script = parse_script_collect(
      "select * from table Products;\n"
      "select * from table NoTable", diags);
  ASSERT_FALSE(diags.has_errors());
  const Status s = analyze_script(script, catalog_);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("statement 2"), std::string::npos);
  EXPECT_NE(s.message().find("NoTable"), std::string::npos);
}

TEST_F(DiagTest, ConditionOnADanglingEdgeIsReported) {
  // The parser never ends a path with an edge step, but a decoded IR
  // script may: its condition sees its own step alone, and the path is
  // reported.
  DiagnosticEngine parsed;
  Script script = parse_script_collect(
      "select * from graph ProductVtx() --producer(ProductVtx.id = 'p')--> "
      "ProducerVtx() into subgraph G",
      parsed);
  ASSERT_FALSE(parsed.has_errors());
  std::get<GraphQueryStmt>(script.statements[0])
      .or_groups[0][0]
      .elements.pop_back();
  DiagnosticEngine diags;
  analyze_script_collect(script, catalog_, diags);
  const auto all = diags.take();
  const auto unknown = with_code(all, DiagCode::kUnknownAttribute);
  ASSERT_EQ(unknown.size(), 1u) << render_diagnostics(all, "", false);
  EXPECT_NE(unknown[0].message.find("unknown qualifier 'ProductVtx'"),
            std::string::npos);
  EXPECT_EQ(with_code(all, DiagCode::kBadStructure).size(), 1u)
      << render_diagnostics(all, "", false);
}

TEST_F(DiagTest, LexAndParseErrorsCarrySpans) {
  DiagnosticEngine diags;
  (void)parse_script_collect("select * from table Products where x ~ 1",
                             diags);
  ASSERT_TRUE(diags.has_errors());
  const auto& d = diags.diagnostics().front();
  EXPECT_TRUE(d.code == DiagCode::kLexError ||
              d.code == DiagCode::kParseError);
  EXPECT_GT(d.span.line, 0u);
  EXPECT_GT(d.span.column, 0u);
}

// ---- Renderer --------------------------------------------------------------

TEST(DiagRenderTest, ClangStyleFormat) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = DiagCode::kEmptyIntersection;
  d.span = SourceSpan{3, 17, 3, 20};
  d.message = "pinched empty";
  d.fixit = "fix it";
  const std::string plain = format_diagnostic(d, "q.graql", false);
  EXPECT_NE(plain.find("q.graql:3:17: warning[GQL0042]: pinched empty"),
            std::string::npos);
  EXPECT_NE(plain.find("fix it"), std::string::npos);
  EXPECT_EQ(plain.find('\x1b'), std::string::npos);
  const std::string colored = format_diagnostic(d, "q.graql", true);
  EXPECT_NE(colored.find('\x1b'), std::string::npos);
}

TEST(DiagRenderTest, SummaryLineCountsBySeverity) {
  std::vector<Diagnostic> diags(2);
  diags[0].severity = Severity::kError;
  diags[1].severity = Severity::kWarning;
  const std::string out = render_diagnostics(diags, "", false);
  EXPECT_NE(out.find("1 error(s), 1 warning(s)"), std::string::npos);
}

// ---- Wire codec ------------------------------------------------------------

TEST(DiagCodecTest, RoundTripIdentity) {
  std::vector<Diagnostic> diags(3);
  diags[0].severity = Severity::kError;
  diags[0].code = DiagCode::kEndpointMismatch;
  diags[0].status_code = StatusCode::kTypeError;
  diags[0].span = SourceSpan{1, 2, 3, 4};
  diags[0].message = "endpoints contradict";
  diags[1].severity = Severity::kWarning;
  diags[1].code = DiagCode::kCostlyClosure;
  diags[1].message = "dense closure";
  diags[1].fixit = "bound it with '{n}'";
  diags[2].severity = Severity::kNote;
  diags[2].code = DiagCode::kAlwaysTrue;
  const auto bytes = encode_diagnostics(diags);
  auto decoded = decode_diagnostics(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), diags);
  EXPECT_EQ(encode_diagnostics(decoded.value()), bytes);
}

TEST(DiagCodecTest, RejectsHostileBytes) {
  EXPECT_FALSE(decode_diagnostics(std::vector<std::uint8_t>{1, 2, 3}).is_ok());
  std::vector<Diagnostic> one(1);
  one[0].message = "hello";
  auto bytes = encode_diagnostics(one);
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2}) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_diagnostics(trunc).is_ok()) << "cut at " << cut;
  }
  bytes.push_back(0);
  EXPECT_FALSE(decode_diagnostics(bytes).is_ok());
}

// ---- End-to-end: Database::check and the net `check` verb ------------------

server::Database& shared_db() {
  static auto db = [] {
    auto built =
        bsbm::make_populated_database(bsbm::GeneratorConfig::derive(40, 7));
    GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
    return std::move(built).value();
  }();
  return *db;
}

TEST(DiagEndToEndTest, DatabaseCheckCollectsAcrossStatements) {
  auto diags = shared_db().check(
      "select * from graph\n"
      "  ProductVtx () --nosuchedge--> FeatureVtx ()\n"
      "into table T9;\n"
      "select nosuchcol from table NoTable");
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  std::size_t errors = 0;
  for (const auto& d : diags.value()) {
    if (d.severity == Severity::kError) ++errors;
  }
  EXPECT_GE(errors, 2u);
  EXPECT_EQ(first_error_status(diags.value()).code(), StatusCode::kNotFound);
}

TEST(DiagEndToEndTest, RemoteCheckIsByteIdenticalToLocal) {
  net::ServerOptions sopt;
  sopt.port = 0;
  net::Server server(shared_db(), sopt);
  ASSERT_TRUE(server.start().is_ok());
  net::ClientOptions copt;
  copt.port = server.port();
  net::Client client(copt);
  ASSERT_TRUE(client.connect().is_ok());

  const char* scripts[] = {
      // Analyzer errors + warnings (server-side analysis).
      "select * from graph\n"
      "  ProductVtx (1 = 2) --nosuchedge--> FeatureVtx ()\n"
      "into table T9;\n"
      "select nosuchcol from table NoTable",
      // Clean script: both sides return the empty list.
      "select * from table Products",
      // Parse error: diagnosed client-side, same bytes as a local check.
      "select * frum table Products",
  };
  for (const char* text : scripts) {
    auto local = shared_db().check(text);
    auto remote = client.check(text);
    ASSERT_TRUE(local.is_ok()) << local.status().to_string();
    ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
    EXPECT_EQ(encode_diagnostics(remote.value()),
              encode_diagnostics(local.value()))
        << "script: " << text << "\nlocal:\n"
        << render_diagnostics(local.value(), "", false) << "remote:\n"
        << render_diagnostics(remote.value(), "", false);
  }
  server.stop();
}

// ---- Lint == runtime -------------------------------------------------------
// Each condition is both linted and run as `select count(*) ... where cond`.
// GQL0050/GQL0051 must appear exactly when the run keeps no rows / every
// row, and a lint error exactly when the run fails, with its StatusCode.

struct LintRuntimeCase {
  const char* table;
  const char* condition;

  friend void PrintTo(const LintRuntimeCase& c, std::ostream* os) {
    *os << c.table << " where " << c.condition;
  }
};

class LintMatchesRuntimeTest
    : public ::testing::TestWithParam<LintRuntimeCase> {};

TEST_P(LintMatchesRuntimeTest, WarningsAndErrorsAgreeWithExecution) {
  const std::string count =
      "select count(*) as n from table " + std::string(GetParam().table);
  const std::string query = count + " where " + GetParam().condition;
  auto diags = shared_db().check(query);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  const Status lint_error = first_error_status(diags.value());
  auto run = shared_db().run_script(query);
  ASSERT_EQ(lint_error.code(), run.status().code())
      << query << "\nlint: " << lint_error.to_string()
      << "\nrun: " << run.status().to_string();
  if (!run.is_ok()) return;

  auto total = shared_db().run_script(count);
  ASSERT_TRUE(total.is_ok()) << total.status().to_string();
  const std::int64_t all = total->back().table->column(0).int64_at(0);
  const std::int64_t kept = run->back().table->column(0).int64_at(0);
  ASSERT_GT(all, 0);
  const auto has = [&](DiagCode code) {
    return !with_code(diags.value(), code).empty();
  };
  EXPECT_EQ(has(DiagCode::kAlwaysFalse), kept == 0)
      << query << " kept " << kept << " of " << all << "\n"
      << render_diagnostics(diags.value(), "", false);
  EXPECT_EQ(has(DiagCode::kAlwaysTrue), kept == all)
      << query << " kept " << kept << " of " << all << "\n"
      << render_diagnostics(diags.value(), "", false);
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, LintMatchesRuntimeTest,
    ::testing::Values(
        // Exact int64 comparison: the two differ, though not as doubles.
        LintRuntimeCase{"Products", "9007199254740993 = 9007199254740992"},
        // NULL is typed integer everywhere.
        LintRuntimeCase{"Producers", "country = NULL"},
        // The int64 rule: arithmetic wraps.
        LintRuntimeCase{"Products", "9223372036854775807 + 1 < 0"},
        LintRuntimeCase{"Products", "-(-9223372036854775807 - 1) < 0"},
        // Division by zero is NULL, and so is a comparison with it.
        LintRuntimeCase{"Products", "1.0 / 0 = 1.0"},
        LintRuntimeCase{"Products", "'b' > 'a'"},
        // and/or fold through the three-valued truth tables.
        LintRuntimeCase{"Offers", "true or price > 50.0"},
        LintRuntimeCase{"Offers", "false and price > 50.0"}));

TEST(LintMatchesRuntime, StarAfterNamedColumnIsRenamedNotRejected) {
  // `*` repeats `id`; the one output derivation names it `id_2` for the
  // lint and the run alike.
  const std::string query = "select top 2 id, * from table Producers";
  auto diags = shared_db().check(query);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  EXPECT_TRUE(diags.value().empty())
      << render_diagnostics(diags.value(), "", false);
  auto run = shared_db().run_script(query);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  const storage::Schema& schema = run->back().table->schema();
  ASSERT_GE(schema.num_columns(), 2u);
  EXPECT_EQ(schema.column(0).name, "id");
  EXPECT_EQ(schema.column(1).name, "id_2");
}

TEST(LintMatchesRuntime, ChainedStarResultsHaveThePredictedColumns) {
  // A later statement reads a column the first one's `select *` does not
  // make: a repeated step, a repeated edge and a regex group's interior
  // each add no columns. The lint must fail where the run fails.
  const char* scripts[] = {
      "select * from graph ProductVtx() --producer--> ProducerVtx() "
      "<--producer-- ProductVtx() into table ChainedT1;\n"
      "select ProductVtx_id_2 from table ChainedT1",
      "select * from graph def X: ProductVtx() --feature--> FeatureVtx() "
      "<--feature-- X into table ChainedT2;\n"
      "select feature_product_2 from table ChainedT2",
      "select * from graph TypeVtx() ( --subclass--> TypeVtx() )+ into "
      "table ChainedT3;\n"
      "select TypeVtx_id_2 from table ChainedT3",
  };
  for (const char* script : scripts) {
    auto diags = shared_db().check(script);
    ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
    auto run = shared_db().run_script(script);
    EXPECT_EQ(run.status().code(), StatusCode::kNotFound)
        << script << "\nrun: " << run.status().to_string();
    EXPECT_EQ(first_error_status(diags.value()).code(), run.status().code())
        << script << "\n"
        << render_diagnostics(diags.value(), "", false);
  }
}

TEST(LintMatchesRuntime, AttributeSelectionIntoSubgraphIsRejected) {
  // A subgraph holds elements, not attributes: the lint refuses an
  // attribute target with the run's StatusCode.
  const std::string query =
      "select ProductVtx.id from graph ProductVtx() --producer--> "
      "ProducerVtx() into subgraph AttrIntoSubgraph";
  auto diags = shared_db().check(query);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  auto run = shared_db().run_script(query);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status().to_string();
  EXPECT_EQ(first_error_status(diags.value()).code(), run.status().code())
      << render_diagnostics(diags.value(), "", false);
}

// ---- Lint == runtime: scopes ----------------------------------------------
// Names that resolve per and-group, per regex group and per declaration.
// A fresh database over exec_regex_test's schema for each script, since
// the declaration probes change it; each script's first lint error must
// carry its run's StatusCode.

/// A database holding exec_regex_test's graph: a0 -ab-> b0 -ba-> a1 -ab->
/// b1 -ba-> a2, a dead end b0 -ba-> a9, and weighted `hop` edges among A.
std::unique_ptr<server::Database> regex_db() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("gems_diag_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name())))
          .string();
  std::filesystem::create_directories(dir);
  std::string script =
      "create table A(id varchar(10))\n"
      "create table B(id varchar(10))\n"
      "create table AB(s varchar(10), d varchar(10))\n"
      "create table BA(s varchar(10), d varchar(10))\n"
      "create table Hop(s varchar(10), d varchar(10), w integer)\n";
  const std::pair<const char*, const char*> rows[] = {
      {"A", "a0\na1\na2\na9\n"},
      {"B", "b0\nb1\n"},
      {"AB", "a0,b0\na1,b1\n"},
      {"BA", "b0,a1\nb1,a2\nb0,a9\n"},
      {"Hop", "a0,a1,1\na1,a2,5\na2,a0,1\na0,a9,9\n"}};
  for (const auto& [table, csv] : rows) {
    const std::string path = dir + "/" + table + ".csv";
    std::ofstream(path) << csv;
    script += "ingest table " + std::string(table) + " '" + path + "'\n";
  }
  script +=
      "create vertex AV(id) from table A\n"
      "create vertex BV(id) from table B\n"
      "create edge ab with vertices (AV, BV) from table AB\n"
      "  where AB.s = AV.id and AB.d = BV.id\n"
      "create edge ba with vertices (BV, AV) from table BA\n"
      "  where BA.s = BV.id and BA.d = AV.id\n"
      "create edge hop with vertices (AV as X, AV as Y) from table Hop\n"
      "  where Hop.s = X.id and Hop.d = Y.id\n";
  auto db = std::make_unique<server::Database>();
  auto built = db->run_script(script);
  GEMS_CHECK_MSG(built.is_ok(), built.status().to_string().c_str());
  return db;
}

struct ScopeProbe {
  const char* what;
  const char* script;
  StatusCode status;  // the run's
  DiagCode code;      // lint's first error

  friend void PrintTo(const ScopeProbe& p, std::ostream* os) {
    *os << p.what;
  }
};

class LintMatchesRuntimeScopeTest
    : public ::testing::TestWithParam<ScopeProbe> {};

TEST_P(LintMatchesRuntimeScopeTest, FirstLintErrorIsTheRunsStatus) {
  const ScopeProbe& probe = GetParam();
  auto db = regex_db();
  auto diags = db->check(probe.script);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  auto run = db->run_script(probe.script);
  EXPECT_EQ(run.status().code(), probe.status)
      << probe.script << "\nrun: " << run.status().to_string();
  const auto first = std::find_if(
      diags->begin(), diags->end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; });
  ASSERT_NE(first, diags->end())
      << probe.script << "\nlint is clean; run: " << run.status().to_string();
  EXPECT_EQ(first->status_code, run.status().code())
      << render_diagnostics(diags.value(), "", false);
  EXPECT_EQ(first->code, probe.code)
      << render_diagnostics(diags.value(), "", false);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, LintMatchesRuntimeScopeTest,
    ::testing::Values(
        ScopeProbe{"a qualifier names a regex group's interior",
                   "select * from graph AV(id = 'a0') ( --ab--> BV() "
                   "--ba--> AV() )+ --hop--> AV(BV.id = 'b0') into subgraph S",
                   StatusCode::kNotFound, DiagCode::kUnknownAttribute},
        ScopeProbe{"a qualifier names a step of another or-branch",
                   "select * from graph AV(id = 'a0') --ab--> BV() or "
                   "AV(BV.id = 'b0') --hop--> AV() into subgraph S",
                   StatusCode::kNotFound, DiagCode::kUnknownAttribute},
        ScopeProbe{"a label is used in another or-branch",
                   "select * from graph def X: AV(id = 'a0') --ab--> BV() "
                   "or X --hop--> AV() into subgraph S",
                   StatusCode::kNotFound, DiagCode::kUnknownName},
        ScopeProbe{"a target names only a regex group's interior",
                   "select BV from graph AV(id = 'a0') ( --ab--> BV() "
                   "--ba--> AV() )+ into subgraph S",
                   StatusCode::kNotFound, DiagCode::kUnknownName},
        ScopeProbe{"a join link compares an integer with a double",
                   "create table P(id double)\n"
                   "create table PQ(p integer, q varchar(10))\n"
                   "create vertex PV(id) from table P\n"
                   "create edge pq with vertices (PV, AV) from table PQ\n"
                   "  where PQ.p = PV.id and PQ.q = AV.id",
                   StatusCode::kTypeError, DiagCode::kTypeMismatch},
        ScopeProbe{"an edge joins two endpoints and seven tables",
                   "create edge big with vertices (AV, BV)\n"
                   "  from table AB, BA, Hop, A, B, AB, BA\n"
                   "  where AB.s = AV.id and AB.d = BV.id",
                   StatusCode::kInvalidArgument, DiagCode::kBadStructure}));

TEST(LintMatchesRuntime, InScriptSubgraphSeedsAsTheCommittedOne) {
  // A variant step's types are predicted for the in-script `S.BV` seed;
  // the one script lints clean and builds the table two scripts build.
  const std::string first =
      "select * from graph AV(id = 'a0') --ab--> [ ] into subgraph S\n";
  const std::string second = "select * from graph S.BV() into table R2\n";
  auto one = regex_db();
  auto diags = one->check(first + second);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  EXPECT_TRUE(first_error_status(diags.value()).is_ok())
      << render_diagnostics(diags.value(), "", false);
  auto run = one->run_script(first + second);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();

  auto two = regex_db();
  ASSERT_TRUE(two->run_script(first).is_ok());
  ASSERT_TRUE(two->run_script(second).is_ok());
  auto bytes = [](server::Database& db) {
    const storage::TablePtr table = db.table("R2").value();
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    encode_rows(*table, 0, table->num_rows(), w);
    return std::make_pair(table->schema().to_string(), out);
  };
  const auto committed = bytes(*two);
  EXPECT_EQ(two->table("R2").value()->num_rows(), 1u);
  EXPECT_EQ(bytes(*one), committed);
}

// ---- Lint == runtime: table statements ------------------------------------
// Each table statement is linted, run through the database (which lints
// first) and executed directly on a pinned epoch with no analysis. All
// three must agree with the probe's StatusCode, and the lint's first error
// must carry the probe's GQL code.

struct TableProbe {
  const char* what;
  const char* query;
  StatusCode status;
  DiagCode code;

  friend void PrintTo(const TableProbe& p, std::ostream* os) {
    *os << p.what;
  }
};

class LintMatchesRuntimeTableTest
    : public ::testing::TestWithParam<TableProbe> {};

TEST_P(LintMatchesRuntimeTableTest, FirstLintErrorIsEveryRunsStatus) {
  const TableProbe& probe = GetParam();
  auto diags = shared_db().check(probe.query);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  const auto first = std::find_if(
      diags->begin(), diags->end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; });
  ASSERT_NE(first, diags->end()) << probe.query << "\nlint is clean";
  EXPECT_EQ(first->status_code, probe.status)
      << render_diagnostics(diags.value(), "", false);
  EXPECT_EQ(first->code, probe.code)
      << render_diagnostics(diags.value(), "", false);

  auto run = shared_db().run_script(probe.query);
  EXPECT_EQ(run.status().code(), probe.status)
      << probe.query << "\nrun: " << run.status().to_string();

  auto script = parse_script(probe.query);
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  ASSERT_EQ(script->statements.size(), 1u);
  const mvcc::EpochPin pin = shared_db().pin_epoch();
  const relational::ParamMap params;
  auto direct = exec::execute_statement_read(script->statements[0],
                                             {&pin.ctx(), &params, nullptr});
  EXPECT_EQ(direct.status().code(), probe.status)
      << probe.query << "\ndirect: " << direct.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Tables, LintMatchesRuntimeTableTest,
    ::testing::Values(
        TableProbe{"order by keys mix an output and a source column",
                   "select id as x, label from table Products "
                   "order by x, comment",
                   StatusCode::kNotFound, DiagCode::kUnknownAttribute},
        TableProbe{"a grouped query orders by a source column",
                   "select country, count(*) as n from table Producers "
                   "group by country order by id",
                   StatusCode::kTypeError, DiagCode::kBadAggregate},
        TableProbe{"a grouped query orders by an aliased group key",
                   "select country as c, count(*) as n from table Producers "
                   "group by country order by country",
                   StatusCode::kTypeError, DiagCode::kBadAggregate},
        TableProbe{"'*' beside an aggregate",
                   "select *, count(*) as n from table Producers",
                   StatusCode::kTypeError, DiagCode::kBadAggregate},
        TableProbe{"a non-aggregated item that is no group key",
                   "select id, count(*) as n from table Producers "
                   "group by country",
                   StatusCode::kTypeError, DiagCode::kBadAggregate},
        TableProbe{"a group by column that is not in the table",
                   "select count(*) as n from table Producers group by nope",
                   StatusCode::kNotFound, DiagCode::kUnknownAttribute},
        TableProbe{"an order by key that names nothing",
                   "select id from table Products order by nope",
                   StatusCode::kNotFound, DiagCode::kUnknownAttribute},
        TableProbe{"sum over a string column",
                   "select sum(label) as s from table Products",
                   StatusCode::kTypeError, DiagCode::kBadAggregate}));

// ---- Generated folds --------------------------------------------------------
// Random constant conditions over int64 extremes, int/double mixes, NaN,
// infinities, dates, strings, NULL, division by zero and overflow. The lint
// sees each leaf as a bound %parameter% and folds the whole condition; the
// kernels evaluate the same tree with each leaf read from a column of a
// one-row table. The fold must be the kernels' value: GQL0051 for true,
// GQL0050 "always false" for false, GQL0050 "always NULL" for NULL.

class FoldGenerator {
 public:
  explicit FoldGenerator(std::uint64_t seed) : rng_(seed) {}

  /// A boolean condition over %p<i>% leaves; params() holds their values.
  std::string condition(int depth) { return boolean(depth); }
  const relational::ParamMap& params() const { return params_; }

 private:
  std::string leaf(Value v) {
    const std::string name = "p" + std::to_string(params_.size());
    params_.emplace(name, std::move(v));
    return "%" + name + "%";
  }

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  std::string numeric(int depth) {
    if (depth <= 0 || pick(3) == 0) {
      static const Value kLeaves[] = {
          Value::int64(std::numeric_limits<std::int64_t>::max()),
          Value::int64(std::numeric_limits<std::int64_t>::min()),
          Value::int64(0), Value::int64(1), Value::int64(-1),
          Value::int64(9007199254740993), Value::int64(3),
          Value::float64(9007199254740992.0), Value::float64(0.0),
          Value::float64(-0.0), Value::float64(2.5),
          Value::float64(std::numeric_limits<double>::quiet_NaN()),
          Value::float64(std::numeric_limits<double>::infinity()),
          Value::float64(-std::numeric_limits<double>::infinity()),
          Value::float64(1e308), Value::null()};
      return leaf(kLeaves[pick(std::size(kLeaves))]);
    }
    static const char* kOps[] = {" + ", " - ", " * ", " / "};
    if (pick(5) == 0) return "(-" + numeric(depth - 1) + ")";
    return "(" + numeric(depth - 1) + kOps[pick(4)] + numeric(depth - 1) +
           ")";
  }

  std::string boolean(int depth) {
    static const char* kCmp[] = {" = ", " <> ", " < ", " <= ", " > ", " >= "};
    const char* cmp = kCmp[pick(6)];
    switch (depth <= 0 ? pick(4) : pick(7)) {
      case 0:
        return "(" + numeric(depth - 1) + cmp + numeric(depth - 1) + ")";
      case 1: {
        static const std::int64_t kDays[] = {
            0, -1, -719469, 2932896, std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()};
        return "(" + leaf(Value::date(kDays[pick(6)])) + cmp +
               leaf(Value::date(kDays[pick(6)])) + ")";
      }
      case 2: {
        static const char* kStrings[] = {"", "a", "b", "ab", "naïve"};
        return "(" + leaf(Value::varchar(kStrings[pick(5)])) + cmp +
               leaf(Value::varchar(kStrings[pick(5)])) + ")";
      }
      case 3:
        return leaf(Value::boolean(pick(2) == 0));
      case 4:
        return "(not " + boolean(depth - 1) + ")";
      default:
        return "(" + boolean(depth - 1) + (pick(2) ? " and " : " or ") +
               boolean(depth - 1) + ")";
    }
  }

  std::mt19937_64 rng_;
  relational::ParamMap params_;
};

/// The kernels' value of `condition` with every %p<i>% read from column
/// p<i> of a one-row table holding `params`: "true", "false" or "NULL".
std::string kernel_value(const std::string& condition,
                         const relational::ParamMap& params) {
  std::vector<storage::ColumnDef> cols;
  std::vector<Value> row;
  for (const auto& [name, value] : params) {
    cols.push_back({name, relational::value_type(value)});
    row.push_back(value);
  }
  StringPool pool;
  auto table = std::make_shared<storage::Table>(
      "T", Schema::create(std::move(cols)).value(), pool);
  table->append_row_unchecked(row);
  std::string text = condition;
  text.erase(std::remove(text.begin(), text.end(), '%'), text.end());
  auto stmt = parse_statement("select * from table T where " + text);
  GEMS_CHECK_MSG(stmt.is_ok(), stmt.status().to_string().c_str());
  const auto& where = std::get<TableQueryStmt>(stmt.value()).where;
  relational::TableScope scope(*table);
  auto bound = relational::bind_predicate(where, scope, {}, pool);
  GEMS_CHECK_MSG(bound.is_ok(), bound.status().to_string().c_str());
  std::vector<relational::OutputColumn> outs;
  outs.push_back({"v", std::move(bound).value()});
  const std::vector<storage::RowIndex> rows{0};
  const auto out = relational::project(*table, rows, outs, "P");
  const storage::Column& v = out->column(0);
  if (v.is_null(0)) return "NULL";
  return v.bool_at(0) ? "true" : "false";
}

TEST_F(DiagTest, GeneratedFoldsEqualKernelValues) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    FoldGenerator gen(seed);
    const std::string cond = gen.condition(static_cast<int>(seed % 4) + 1);
    AnalyzeOptions opts;
    opts.params = &gen.params();
    const auto diags =
        lint("select * from table Products where " + cond, opts);
    std::string folded = "unknown";
    for (const auto& d : diags) {
      ASSERT_EQ(d.severity, Severity::kWarning)
          << cond << ": " << d.message;
      if (d.code == DiagCode::kAlwaysTrue) folded = "true";
      if (d.code == DiagCode::kAlwaysFalse) {
        folded = d.message.find("always NULL") != std::string::npos
                     ? "NULL"
                     : "false";
      }
    }
    // Every leaf is a bound parameter, so nothing is left unknown.
    EXPECT_EQ(folded, kernel_value(cond, gen.params()))
        << "seed " << seed << ": " << cond;
  }
}

// ---- The repo's demo scripts must lint clean -------------------------------

std::string read_script_skipping_meta(const std::filesystem::path& path) {
  std::ifstream in(path);
  GEMS_CHECK_MSG(in.good(), path.string().c_str());
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '\\') line.clear();
    text += line;
    text += '\n';
  }
  return text;
}

class ScriptLintTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScriptLintTest, DemoScriptIsWarningClean) {
  const auto path = std::filesystem::path(__FILE__).parent_path()
                        .parent_path() / "scripts" / GetParam();
  const std::string text = read_script_skipping_meta(path);
  auto diags = shared_db().check(text);
  ASSERT_TRUE(diags.is_ok()) << diags.status().to_string();
  EXPECT_TRUE(diags.value().empty())
      << render_diagnostics(diags.value(), GetParam(), false);
}

INSTANTIATE_TEST_SUITE_P(RepoScripts, ScriptLintTest,
                         ::testing::Values("berlin_queries.graql",
                                           "figures_tour.graql"));

}  // namespace
}  // namespace gems::graql
