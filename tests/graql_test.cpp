// Tests for the GraQL frontend: lexer, parser (the paper's Figs. 2-13
// syntax), static analyzer (Sec. III-A), and binary IR round-trips.
#include <gtest/gtest.h>

#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "graql/lexer.hpp"
#include "graql/parser.hpp"

namespace gems::graql {
namespace {

using storage::DataType;
using storage::Schema;

// ---- Lexer -------------------------------------------------------------------

TEST(LexerTest, ArrowsAndDashes) {
  auto tokens = lex("--producer--> <--reviewer-- a - b -> c");
  ASSERT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens.value()) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kDashDash, TokenKind::kIdent,
                       TokenKind::kArrowRight, TokenKind::kArrowLeft,
                       TokenKind::kIdent, TokenKind::kDashDash,
                       TokenKind::kIdent, TokenKind::kMinus,
                       TokenKind::kIdent, TokenKind::kArrowRight,
                       TokenKind::kIdent, TokenKind::kEof}));
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = lex("SELECT Select select");
  ASSERT_TRUE(tokens.is_ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(tokens.value()[i].is_keyword("select"));
  }
}

TEST(LexerTest, IdentifiersAreCaseSensitive) {
  auto tokens = lex("ProductVtx productvtx");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_EQ(tokens.value()[0].text, "ProductVtx");
  EXPECT_EQ(tokens.value()[1].text, "productvtx");
}

TEST(LexerTest, ParamsStringsNumbers) {
  auto tokens = lex("%Product1% 'hi there' 3 4.5 1e3");
  ASSERT_TRUE(tokens.is_ok());
  const auto& v = tokens.value();
  EXPECT_EQ(v[0].kind, TokenKind::kParam);
  EXPECT_EQ(v[0].text, "Product1");
  EXPECT_EQ(v[1].kind, TokenKind::kString);
  EXPECT_EQ(v[1].text, "hi there");
  EXPECT_EQ(v[2].ival, 3);
  EXPECT_DOUBLE_EQ(v[3].fval, 4.5);
  EXPECT_DOUBLE_EQ(v[4].fval, 1000.0);
}

TEST(LexerTest, Comments) {
  auto tokens = lex("a # comment --> ignored\nb /* multi\nline */ c");
  ASSERT_TRUE(tokens.is_ok());
  ASSERT_EQ(tokens->size(), 4u);  // a b c eof
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(lex("'unterminated").is_ok());
  EXPECT_FALSE(lex("%unterminated").is_ok());
  EXPECT_FALSE(lex("%%").is_ok());
  EXPECT_FALSE(lex("a ! b").is_ok());
  EXPECT_FALSE(lex("/* unterminated").is_ok());
}

TEST(LexerTest, ErrorCarriesPosition) {
  auto r = lex("ab\ncd $");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

// ---- Parser: DDL (paper Appendix A / Figs. 2-4) ------------------------------

TEST(ParserTest, CreateTable) {
  auto stmt = parse_statement(
      "create table Offers(id varchar(10), price float, deliveryDays "
      "integer, validFrom date, ok boolean)");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateTableStmt>(stmt.value());
  EXPECT_EQ(s.name, "Offers");
  ASSERT_EQ(s.columns.size(), 5u);
  EXPECT_EQ(s.columns[0].type, DataType::varchar(10));
  EXPECT_EQ(s.columns[1].type, DataType::float64());
  EXPECT_EQ(s.columns[2].type, DataType::int64());
  EXPECT_EQ(s.columns[3].type, DataType::date());
  EXPECT_EQ(s.columns[4].type, DataType::boolean());
}

TEST(ParserTest, CreateVertexFig2) {
  auto stmt = parse_statement("create vertex ProductVtx(id)\nfrom table "
                              "Products");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateVertexStmt>(stmt.value());
  EXPECT_EQ(s.decl.name, "ProductVtx");
  EXPECT_EQ(s.decl.key_columns, std::vector<std::string>{"id"});
  EXPECT_EQ(s.decl.table, "Products");
  EXPECT_EQ(s.decl.where, nullptr);
}

TEST(ParserTest, CreateVertexWithWhere) {
  auto stmt = parse_statement(
      "create vertex CheapProduct(id) from table Products where "
      "propertyNumeric_1 < 100");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateVertexStmt>(stmt.value());
  ASSERT_NE(s.decl.where, nullptr);
  EXPECT_EQ(s.decl.where->to_string(), "(propertyNumeric_1 < 100)");
}

TEST(ParserTest, CreateEdgeFig3Subclass) {
  auto stmt = parse_statement(
      "create edge subclass with\nvertices (TypeVtx as A, TypeVtx as B)\n"
      "where A.subclassOf = B.id");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateEdgeStmt>(stmt.value());
  EXPECT_EQ(s.decl.name, "subclass");
  EXPECT_EQ(s.decl.source.vertex_type, "TypeVtx");
  EXPECT_EQ(s.decl.source.alias, "A");
  EXPECT_EQ(s.decl.target.alias, "B");
  EXPECT_TRUE(s.decl.assoc_tables.empty());
}

TEST(ParserTest, CreateEdgeFig3WithAssocTable) {
  auto stmt = parse_statement(
      "create edge type with\nvertices (ProductVtx, TypeVtx)\n"
      "from table ProductTypes\nwhere ProductTypes.product = ProductVtx.id\n"
      "and ProductTypes.type = TypeVtx.id");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateEdgeStmt>(stmt.value());
  EXPECT_EQ(s.decl.assoc_tables, std::vector<std::string>{"ProductTypes"});
}

TEST(ParserTest, CreateEdgeMultipleAssocTables) {
  auto stmt = parse_statement(
      "create edge export with vertices (ProducerCountry as P, "
      "VendorCountry as V) from table Products, Offers where "
      "Products.producer = P.id and Offers.product = Products.id and "
      "Offers.vendor = V.id and P.country <> V.country");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<CreateEdgeStmt>(stmt.value());
  EXPECT_EQ(s.decl.assoc_tables,
            (std::vector<std::string>{"Products", "Offers"}));
}

TEST(ParserTest, IngestUnquotedAndQuoted) {
  auto a = parse_statement("ingest table Products products.csv");
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  EXPECT_EQ(std::get<IngestStmt>(a.value()).path, "products.csv");

  auto b = parse_statement("ingest table Products '/data/products.csv' "
                           "with header");
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(std::get<IngestStmt>(b.value()).path, "/data/products.csv");
  EXPECT_TRUE(std::get<IngestStmt>(b.value()).has_header);
}

// ---- Parser: path queries (Figs. 6, 7, 9, 10, 11, 12) -------------------------

TEST(ParserTest, BerlinQuery2Fig6) {
  auto stmt = parse_statement(
      "select y.id from graph\n"
      "ProductVtx (id = %Product1%)\n"
      "--feature--> FeatureVtx ( )\n"
      "<--feature-- def y: ProductVtx (id <> %Product1%)\n"
      "into table T1");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<GraphQueryStmt>(stmt.value());
  ASSERT_EQ(s.targets.size(), 1u);
  EXPECT_EQ(s.targets[0].qualifier, "y");
  EXPECT_EQ(s.targets[0].column, "id");
  ASSERT_EQ(s.or_groups.size(), 1u);
  ASSERT_EQ(s.or_groups[0].size(), 1u);
  const PathPattern& path = s.or_groups[0][0];
  ASSERT_EQ(path.elements.size(), 5u);
  const auto& v0 = std::get<VertexStep>(path.elements[0]);
  EXPECT_EQ(v0.type_name, "ProductVtx");
  ASSERT_NE(v0.condition, nullptr);
  const auto& e0 = std::get<EdgeStep>(path.elements[1]);
  EXPECT_EQ(e0.type_name, "feature");
  EXPECT_FALSE(e0.reversed);
  const auto& v1 = std::get<VertexStep>(path.elements[2]);
  EXPECT_EQ(v1.condition, nullptr);  // "( )" = no filter
  const auto& e1 = std::get<EdgeStep>(path.elements[3]);
  EXPECT_TRUE(e1.reversed);
  const auto& v2 = std::get<VertexStep>(path.elements[4]);
  EXPECT_EQ(v2.label_kind, LabelKind::kSet);
  EXPECT_EQ(v2.label, "y");
  EXPECT_EQ(s.into, IntoKind::kTable);
  EXPECT_EQ(s.into_name, "T1");
}

TEST(ParserTest, BerlinQuery1Fig7MultiPathAnd) {
  auto stmt = parse_statement(
      "select TypeVtx.id from graph\n"
      "PersonVtx (country = %Country2%)\n"
      "<--reviewer-- ReviewVtx ()\n"
      "--reviewFor--> foreach y: ProductVtx ()\n"
      "--producer--> ProducerVtx (country = %Country1%)\n"
      "and\n"
      "(y --type--> TypeVtx ())\n"
      "into table T1");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<GraphQueryStmt>(stmt.value());
  ASSERT_EQ(s.or_groups.size(), 1u);
  ASSERT_EQ(s.or_groups[0].size(), 2u);  // and-composed paths
  const PathPattern& second = s.or_groups[0][1];
  ASSERT_EQ(second.elements.size(), 3u);
  // The second path starts with a bare label reference `y`.
  EXPECT_EQ(std::get<VertexStep>(second.elements[0]).type_name, "y");
  // The first path's third vertex step has a foreach label.
  const auto& main = s.or_groups[0][0];
  const auto& v = std::get<VertexStep>(main.elements[4]);
  EXPECT_EQ(v.label_kind, LabelKind::kForeach);
  EXPECT_EQ(v.label, "y");
}

TEST(ParserTest, OrComposition) {
  auto stmt = parse_statement(
      "select * from graph A() --e--> B() or C() --f--> D() into subgraph "
      "G");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<GraphQueryStmt>(stmt.value());
  ASSERT_EQ(s.or_groups.size(), 2u);
  EXPECT_EQ(s.or_groups[0].size(), 1u);
  EXPECT_EQ(s.or_groups[1].size(), 1u);
}

TEST(ParserTest, TypeMatchingFig9) {
  auto stmt = parse_statement(
      "select * from graph ProductVtx (id = %Product1%) <--[]-- [ ] into "
      "subgraph allProduct1");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<GraphQueryStmt>(stmt.value());
  const auto& path = s.or_groups[0][0];
  ASSERT_EQ(path.elements.size(), 3u);
  EXPECT_TRUE(std::get<EdgeStep>(path.elements[1]).variant);
  EXPECT_TRUE(std::get<EdgeStep>(path.elements[1]).reversed);
  EXPECT_TRUE(std::get<VertexStep>(path.elements[2]).variant);
}

TEST(ParserTest, RegexPathFig10) {
  auto stmt = parse_statement(
      "select * from graph VertexA(x = 1) ( --[]--> [ ] )+ into subgraph "
      "res");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<GraphQueryStmt>(stmt.value());
  const auto& path = s.or_groups[0][0];
  ASSERT_EQ(path.elements.size(), 2u);
  const auto& g = std::get<PathGroup>(path.elements[1]);
  EXPECT_EQ(g.quant, PathGroup::Quant::kPlus);
  ASSERT_EQ(g.body.size(), 2u);
  EXPECT_TRUE(std::get<EdgeStep>(g.body[0]).variant);
}

TEST(ParserTest, RegexQuantifiers) {
  auto star = parse_statement(
      "select * from graph A() ( --e--> B() )* into subgraph r");
  ASSERT_TRUE(star.is_ok()) << star.status().to_string();
  EXPECT_EQ(std::get<PathGroup>(
                std::get<GraphQueryStmt>(star.value())
                    .or_groups[0][0]
                    .elements[1])
                .quant,
            PathGroup::Quant::kStar);

  auto exact = parse_statement(
      "select * from graph A() ( --e--> B() ){10} into subgraph r");
  ASSERT_TRUE(exact.is_ok()) << exact.status().to_string();
  const auto& g = std::get<PathGroup>(
      std::get<GraphQueryStmt>(exact.value()).or_groups[0][0].elements[1]);
  EXPECT_EQ(g.quant, PathGroup::Quant::kExact);
  EXPECT_EQ(g.count, 10u);
}

TEST(ParserTest, SeededQueryFig12) {
  auto stmt = parse_statement(
      "select * from graph resQ1.Vn(x = 2) --e--> W() into subgraph resQ2");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& v = std::get<VertexStep>(
      std::get<GraphQueryStmt>(stmt.value()).or_groups[0][0].elements[0]);
  EXPECT_EQ(v.seed_result, "resQ1");
  EXPECT_EQ(v.type_name, "Vn");
  ASSERT_NE(v.condition, nullptr);
}

TEST(ParserTest, VariantStepConditionRejected) {
  EXPECT_FALSE(parse_statement(
                   "select * from graph A() --[](x = 1)--> B() into "
                   "subgraph r")
                   .is_ok());
}

TEST(ParserTest, PathMustStartWithSelect) {
  EXPECT_FALSE(parse_statement("from graph A()").is_ok());
}

TEST(ParserTest, GraphQueryRejectsAggregates) {
  EXPECT_FALSE(
      parse_statement("select count(*) from graph A() into table T")
          .is_ok());
}

TEST(ParserTest, TopNeedsACountOfAtLeastOne) {
  // top_n 0 means "no top": `top 0` would return every row, and a graph
  // query would slip past the table-only check.
  for (const char* text :
       {"select top 0 id from table Products",
        "select top 0 * from graph A() into table T"}) {
    auto stmt = parse_statement(text);
    ASSERT_FALSE(stmt.is_ok()) << text;
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(stmt.status().message().find(
                  "'top' needs a count of at least 1"),
              std::string::npos)
        << stmt.status().to_string();
  }
  auto one = parse_statement("select top 1 id from table Products");
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  EXPECT_EQ(std::get<TableQueryStmt>(*one).top_n, 1u);
}

// ---- Parser: table queries (Fig. 6 second half, Table I) ---------------------

TEST(ParserTest, BerlinQuery2TableStage) {
  auto stmt = parse_statement(
      "select top 10 id, count(*) as groupCount\n"
      "from table T1\n"
      "group by id order by groupCount desc");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<TableQueryStmt>(stmt.value());
  EXPECT_EQ(s.top_n, 10u);
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].agg, AggFunc::kCountStar);
  EXPECT_EQ(s.items[1].alias, "groupCount");
  EXPECT_EQ(s.group_by, std::vector<std::string>{"id"});
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_EQ(s.order_by[0].column, "groupCount");
  EXPECT_TRUE(s.order_by[0].descending);
}

TEST(ParserTest, TableQueryAllAggregates) {
  auto stmt = parse_statement(
      "select count(price), sum(price), avg(price), min(price), max(price) "
      "from table Offers");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<TableQueryStmt>(stmt.value());
  ASSERT_EQ(s.items.size(), 5u);
  EXPECT_EQ(s.items[0].agg, AggFunc::kCount);
  EXPECT_EQ(s.items[4].agg, AggFunc::kMax);
}

TEST(ParserTest, TableQueryDistinctAndWhere) {
  auto stmt = parse_statement(
      "select distinct country from table Vendors where country <> 'US' "
      "into table T2");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<TableQueryStmt>(stmt.value());
  EXPECT_TRUE(s.distinct);
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.into, IntoKind::kTable);
}

TEST(ParserTest, DateLiteral) {
  auto stmt = parse_statement(
      "select * from table Offers where validFrom > date '2008-06-20'");
  ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
  const auto& s = std::get<TableQueryStmt>(stmt.value());
  EXPECT_NE(s.where->to_string().find("2008-06-20"), std::string::npos);
}

TEST(ParserTest, ScriptWithMultipleStatements) {
  auto script = parse_script(
      "create table T(id varchar(10));\n"
      "create vertex V(id) from table T\n"
      "select * from table T");
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  EXPECT_EQ(script->statements.size(), 3u);
}

// ---- Round-trip: parse(to_string(parse(x))) == parse(x) ----------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParseStable) {
  auto first = parse_statement(GetParam());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string printed = to_string(first.value());
  auto second = parse_statement(printed);
  ASSERT_TRUE(second.is_ok())
      << "re-parse failed for: " << printed << "\n"
      << second.status().to_string();
  EXPECT_EQ(printed, to_string(second.value()));
}

INSTANTIATE_TEST_SUITE_P(
    GraqlStatements, RoundTripTest,
    ::testing::Values(
        "create table Products(id varchar(10), price float, d date)",
        "create vertex ProductVtx(id) from table Products",
        "create vertex PC(country) from table Producers where country = 'US'",
        "create edge subclass with vertices (TypeVtx as A, TypeVtx as B) "
        "where A.subclassOf = B.id",
        "create edge type with vertices (ProductVtx, TypeVtx) from table "
        "ProductTypes where ProductTypes.product = ProductVtx.id and "
        "ProductTypes.type = TypeVtx.id",
        "ingest table Products 'products.csv' with header",
        "select y.id from graph ProductVtx(id = %Product1%) --feature--> "
        "FeatureVtx() <--feature-- def y: ProductVtx(id <> %Product1%) "
        "into table T1",
        "select * from graph ProductVtx(id = 'p1') <--[]-- [ ] into "
        "subgraph g",
        "select * from graph A() ( --[]--> [ ] )+ --e--> B() into subgraph "
        "r",
        "select * from graph A() ( --e--> B() ){3} into subgraph r",
        "select * from graph resQ1.Vn(x = 2) --e--> W() into subgraph q2",
        "select TypeVtx.id from graph P(c = 1) <--r-- R() --f--> foreach "
        "y: V() --p--> Q(d = 2) and (y --t--> TypeVtx()) into table T",
        "select top 10 id, count(*) as n from table T1 group by id order "
        "by n desc",
        "select distinct country from table Vendors where country <> 'US' "
        "into table T2",
        "select avg(price) as mean, min(d) as first from table Offers"));

// ---- IR round-trips -----------------------------------------------------------

class IrRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IrRoundTripTest, EncodeDecodeIdentity) {
  auto script = parse_script(GetParam());
  ASSERT_TRUE(script.is_ok()) << script.status().to_string();
  const auto bytes = encode_script(script.value());
  auto decoded = decode_script(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  // Structural identity via the canonical printer.
  EXPECT_EQ(to_string(script.value()), to_string(decoded.value()));
  // Determinism: encoding the decoded script yields identical bytes.
  EXPECT_EQ(encode_script(decoded.value()), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    GraqlScripts, IrRoundTripTest,
    ::testing::Values(
        "create table Products(id varchar(10), price float, d date)\n"
        "create vertex ProductVtx(id) from table Products\n"
        "ingest table Products 'p.csv'",
        "select y.id from graph ProductVtx(id = %Product1%) --feature--> "
        "FeatureVtx() <--feature-- def y: ProductVtx(id <> %Product1%) "
        "into table T1\n"
        "select top 10 id, count(*) as n from table T1 group by id order "
        "by n desc",
        "select * from graph A() ( --[]--> [ ] )* --e--> B(x = 1.5 and y "
        "= date '2001-02-03' or not (z <> 'q')) into subgraph r"));

TEST(IrTest, RejectsGarbage) {
  const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
  EXPECT_FALSE(decode_script(junk).is_ok());
}

TEST(IrTest, RejectsTruncation) {
  auto script = parse_script("create table T(id varchar(10))");
  ASSERT_TRUE(script.is_ok());
  auto bytes = encode_script(script.value());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{7}}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    EXPECT_FALSE(decode_script(truncated).is_ok()) << "cut at " << cut;
  }
}

TEST(IrTest, RejectsTrailingBytes) {
  auto script = parse_script("create table T(id varchar(10))");
  ASSERT_TRUE(script.is_ok());
  auto bytes = encode_script(script.value());
  bytes.push_back(0);
  EXPECT_FALSE(decode_script(bytes).is_ok());
}

// ---- Static analyzer (paper Sec. III-A) ----------------------------------------

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() {
    // A miniature Berlin catalog.
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
                   .add_table("ProductTypes",
                              Schema({{"product", DataType::varchar(10)},
                                      {"type", DataType::varchar(10)}}))
                   .is_ok());
    GEMS_CHECK(catalog_
                   .add_table("Types",
                              Schema({{"id", DataType::varchar(10)}}))
                   .is_ok());
    run_ok("create vertex ProductVtx(id) from table Products");
    run_ok("create vertex ProducerVtx(id) from table Producers");
    run_ok("create vertex TypeVtx(id) from table Types");
    run_ok(
        "create edge producer with vertices (ProductVtx, ProducerVtx) "
        "where ProductVtx.producer = ProducerVtx.id");
    run_ok(
        "create edge type with vertices (ProductVtx, TypeVtx) from table "
        "ProductTypes where ProductTypes.product = ProductVtx.id and "
        "ProductTypes.type = TypeVtx.id");
  }

  void run_ok(const std::string& text) {
    auto stmt = parse_statement(text);
    ASSERT_TRUE(stmt.is_ok()) << stmt.status().to_string();
    auto s = analyze_statement(stmt.value(), catalog_);
    ASSERT_TRUE(s.is_ok()) << text << "\n" << s.to_string();
  }

  Status run(const std::string& text) {
    auto stmt = parse_statement(text);
    if (!stmt.is_ok()) return stmt.status();
    return analyze_statement(stmt.value(), catalog_);
  }

  MetaCatalog catalog_;
};

TEST_F(AnalyzerTest, AcceptsValidPathQuery) {
  EXPECT_TRUE(run("select ProducerVtx.country from graph ProductVtx(price "
                  "< 100) --producer--> ProducerVtx() into table R")
                  .is_ok());
}

TEST_F(AnalyzerTest, RejectsDateVsFloatComparison) {
  // The paper's example: "comparing a date to a floating-point number".
  EXPECT_EQ(run("select * from graph ProductVtx(date < 1.5) --producer--> "
                "ProducerVtx() into table R")
                .code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerTest, RejectsTableWhereVertexRequired) {
  const Status s = run(
      "select * from graph Products() --producer--> ProducerVtx() into "
      "subgraph R");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_NE(s.message().find("is a table"), std::string::npos);
}

TEST_F(AnalyzerTest, RejectsVertexWhereTableRequired) {
  const Status s = run("select * from table ProductVtx");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_NE(s.message().find("vertex type"), std::string::npos);
}

TEST_F(AnalyzerTest, RejectsWrongEdgeDirection) {
  // producer runs Product -> Producer; the reversed use must be <--.
  EXPECT_EQ(run("select * from graph ProducerVtx() --producer--> "
                "ProductVtx() into subgraph R")
                .code(),
            StatusCode::kTypeError);
  EXPECT_TRUE(run("select * from graph ProducerVtx() <--producer-- "
                  "ProductVtx() into subgraph R")
                  .is_ok());
}

TEST_F(AnalyzerTest, RejectsUnknownTypesAndAttributes) {
  EXPECT_EQ(run("select * from graph NoVtx() --producer--> ProducerVtx() "
                "into subgraph R")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("select * from graph ProductVtx() --noedge--> "
                "ProducerVtx() into subgraph R")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("select * from graph ProductVtx(nope = 1) --producer--> "
                "ProducerVtx() into subgraph R")
                .code(),
            StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, RejectsStaticallyEmptyVariantStep) {
  // No edge type connects Producer to Type.
  EXPECT_EQ(run("select * from graph ProducerVtx() --[]--> TypeVtx() into "
                "subgraph R")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, LabelScoping) {
  // Label referenced before definition.
  EXPECT_FALSE(run("select y.id from graph y() --producer--> ProducerVtx() "
                   "into table R")
                   .is_ok());
  // Duplicate label.
  EXPECT_EQ(run("select * from graph def x: ProductVtx() --producer--> "
                "def x: ProducerVtx() into subgraph R")
                .code(),
            StatusCode::kAlreadyExists);
  // Valid def + reference with condition on labeled step's attrs.
  EXPECT_TRUE(run("select x.id from graph def x: ProductVtx(price < 5) "
                  "--producer--> ProducerVtx() and (x --type--> TypeVtx()) "
                  "into table R")
                  .is_ok());
}

TEST_F(AnalyzerTest, ConditionsMayReferenceLabeledSteps) {
  EXPECT_TRUE(
      run("select * from graph def p: ProductVtx() --type--> TypeVtx(id "
          "<> p.id) into subgraph R")
          .is_ok());
  // ...but not unlabeled other steps by type name from a later statement?
  // Referencing an unknown qualifier fails.
  EXPECT_FALSE(
      run("select * from graph ProductVtx() --type--> TypeVtx(id <> "
          "Nope.id) into subgraph R")
          .is_ok());
}

TEST_F(AnalyzerTest, SelectTargetResolution) {
  EXPECT_EQ(run("select Unknown.id from graph ProductVtx() --producer--> "
                "ProducerVtx() into table R")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("select ProductVtx.nope from graph ProductVtx() "
                "--producer--> ProducerVtx() into table R")
                .code(),
            StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, IntoTableRegistersInferredSchema) {
  run_ok("select ProductVtx.id, ProducerVtx.country from graph "
         "ProductVtx() --producer--> ProducerVtx() into table R");
  const Schema* schema = catalog_.find_table("R");
  ASSERT_NE(schema, nullptr);
  ASSERT_EQ(schema->num_columns(), 2u);
  EXPECT_EQ(schema->column(0).name, "id");
  EXPECT_EQ(schema->column(1).name, "country");
  // The result is queryable downstream (Fig. 6's pattern).
  EXPECT_TRUE(run("select top 5 id, count(*) as n from table R group by "
                  "id order by n desc")
                  .is_ok());
}

TEST_F(AnalyzerTest, IntoTableSchemaDisambiguatesCollidingNames) {
  run_ok("select ProductVtx.id, ProducerVtx.id from graph ProductVtx() "
         "--producer--> ProducerVtx() into table R2");
  const Schema* schema = catalog_.find_table("R2");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->column(0).name, "id");
  EXPECT_EQ(schema->column(1).name, "ProducerVtx_id");
}

TEST_F(AnalyzerTest, SubgraphSeedingChecked) {
  run_ok("select ProductVtx from graph ProductVtx() --producer--> "
         "ProducerVtx() into subgraph G1");
  EXPECT_TRUE(run("select * from graph G1.ProductVtx() --type--> TypeVtx() "
                  "into subgraph G2")
                  .is_ok());
  // Seeding from a step the subgraph does not contain fails.
  EXPECT_EQ(run("select * from graph G1.ProducerVtx() <--producer-- "
                "ProductVtx() into subgraph G3")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("select * from graph NoSub.ProductVtx() --type--> "
                "TypeVtx() into subgraph G4")
                .code(),
            StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, TableQueryChecks) {
  // Aggregate + bare column not in group by.
  EXPECT_EQ(run("select id, count(*) from table Products").code(),
            StatusCode::kTypeError);
  // group by on unknown column.
  EXPECT_EQ(run("select producer, count(*) as n from table Products group "
                "by nope")
                .code(),
            StatusCode::kNotFound);
  // order by must reference the grouped output.
  EXPECT_EQ(run("select producer, count(*) as n from table Products group "
                "by producer order by price")
                .code(),
            StatusCode::kTypeError);
  // sum over varchar.
  EXPECT_EQ(run("select sum(id) from table Products").code(),
            StatusCode::kTypeError);
  // Valid aggregate query.
  EXPECT_TRUE(run("select producer, avg(price) as mean from table Products "
                  "group by producer order by mean desc")
                  .is_ok());
}

TEST_F(AnalyzerTest, ParamsTypedWhenProvided) {
  relational::ParamMap params;
  params.emplace("P", storage::Value::float64(1.5));
  auto stmt = parse_statement(
      "select * from graph ProductVtx(date < %P%) --producer--> "
      "ProducerVtx() into subgraph R");
  ASSERT_TRUE(stmt.is_ok());
  // With a float param bound, date < float is a type error.
  EXPECT_EQ(analyze_statement(stmt.value(), catalog_, &params).code(),
            StatusCode::kTypeError);
  // Without params, the comparison is accepted (wildcard).
  EXPECT_TRUE(analyze_statement(stmt.value(), catalog_).is_ok());
}

TEST_F(AnalyzerTest, DdlChecks) {
  EXPECT_EQ(run("create vertex V(nope) from table Products").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("create vertex ProductVtx(id) from table Products").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(run("create edge e with vertices (ProductVtx, NopeVtx) where "
                "ProductVtx.id = NopeVtx.id")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      run("create edge e with vertices (ProductVtx as A, ProductVtx) "
          "where A.id = A.id")
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(run("ingest table NoTable 'x.csv'").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(run("ingest table ProductVtx 'x.csv'").code(),
            StatusCode::kTypeError);
}

TEST_F(AnalyzerTest, LabelsInsideRegexGroupsRejected) {
  EXPECT_EQ(run("select * from graph ProductVtx() ( --type--> def x: "
                "TypeVtx() )+ into subgraph R")
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gems::graql
