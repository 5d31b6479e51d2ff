// Tests for the relational engine: expression binding/type checking
// (paper Sec. III-A), evaluation semantics, and every Table I operator —
// plus the equivalence properties of the kernel engine against the
// row-at-a-time oracle in relational_oracle.hpp (byte-identical at every
// null density, over tables of several batches).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

#include "bsbm/generator.hpp"
#include "common/scratch_arena.hpp"
#include "exec/executor.hpp"
#include "graql/parser.hpp"
#include "relational/bound_expr.hpp"
#include "relational/eval.hpp"
#include "relational/null_semantics.hpp"
#include "relational/operators.hpp"
#include "relational/vector_eval.hpp"
#include "relational_oracle.hpp"
#include "server/database.hpp"
#include "storage/csv.hpp"

namespace gems::relational {
namespace {

using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::TypeKind;
using storage::Value;

class RelationalTest : public ::testing::Test {
 protected:
  RelationalTest() {
    offers_ = std::make_shared<Table>(
        "Offers",
        Schema({{"id", DataType::varchar(10)},
                {"product", DataType::varchar(10)},
                {"price", DataType::float64()},
                {"deliveryDays", DataType::int64()},
                {"validFrom", DataType::date()}}),
        pool_);
    const char* csv =
        "o1,p1,10.0,3,2008-01-01\n"
        "o2,p1,20.0,7,2008-02-01\n"
        "o3,p2,15.0,,2008-03-01\n"
        "o4,p2,15.0,2,2008-03-01\n"
        "o5,p3,,14,2008-04-01\n";
    GEMS_CHECK(storage::ingest_csv_text(*offers_, csv).is_ok());

    products_ = std::make_shared<Table>(
        "Products", Schema({{"id", DataType::varchar(10)},
                            {"label", DataType::varchar(10)}}),
        pool_);
    GEMS_CHECK(storage::ingest_csv_text(*products_,
                                        "p1,alpha\np2,beta\np4,gamma\n")
                   .is_ok());
  }

  /// Binds a predicate over offers_ or fails the test.
  BoundExprPtr bind_offers(const ExprPtr& e, const ParamMap& params = {}) {
    TableScope scope(*offers_);
    auto r = bind_predicate(e, scope, params, pool_);
    GEMS_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    return std::move(r).value();
  }

  StringPool pool_;
  TablePtr offers_;
  TablePtr products_;
};

// ---- Expr AST helpers -------------------------------------------------------

TEST(ExprTest, ToStringRendersGraqlish) {
  auto e = Expr::make_binary(
      BinaryOp::kAnd,
      Expr::make_binary(BinaryOp::kEq, Expr::make_column("", "country"),
                        Expr::make_parameter("Country1")),
      Expr::make_binary(BinaryOp::kGt, Expr::make_column("A", "price"),
                        Expr::make_literal(Value::int64(10))));
  EXPECT_EQ(e->to_string(),
            "((country = %Country1%) and (A.price > 10))");
}

TEST(ExprTest, SplitAndRebuildConjuncts) {
  auto a = Expr::make_column("", "a");
  auto b = Expr::make_column("", "b");
  auto c = Expr::make_column("", "c");
  auto conj = Expr::make_binary(BinaryOp::kAnd,
                                Expr::make_binary(BinaryOp::kAnd, a, b), c);
  auto parts = split_conjuncts(conj);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(parts[0]->equals(*a));
  EXPECT_TRUE(parts[2]->equals(*c));
  ExprPtr rebuilt;
  for (const ExprPtr& part : parts) {
    rebuilt = rebuilt ? Expr::make_binary(BinaryOp::kAnd, rebuilt, part) : part;
  }
  ASSERT_EQ(split_conjuncts(rebuilt).size(), 3u);
  EXPECT_TRUE(rebuilt->equals(*conj));
}

TEST(ExprTest, OrIsNotSplit) {
  auto e = Expr::make_binary(BinaryOp::kOr, Expr::make_column("", "a"),
                             Expr::make_column("", "b"));
  EXPECT_EQ(split_conjuncts(e).size(), 1u);
}

TEST(ExprTest, StructuralEquality) {
  auto a = Expr::make_binary(BinaryOp::kLt, Expr::make_column("q", "x"),
                             Expr::make_literal(Value::int64(3)));
  auto b = Expr::make_binary(BinaryOp::kLt, Expr::make_column("q", "x"),
                             Expr::make_literal(Value::int64(3)));
  auto c = Expr::make_binary(BinaryOp::kLe, Expr::make_column("q", "x"),
                             Expr::make_literal(Value::int64(3)));
  EXPECT_TRUE(a->equals(*b));
  EXPECT_FALSE(a->equals(*c));
}

// ---- Binding / static type checking ----------------------------------------

TEST_F(RelationalTest, BindResolvesColumnsAndTypes) {
  TableScope scope(*offers_);
  auto bound = bind_expr(Expr::make_column("", "price"), scope, {}, pool_);
  ASSERT_TRUE(bound.is_ok());
  EXPECT_EQ(bound.value()->type.kind, TypeKind::kDouble);
  EXPECT_EQ(bound.value()->slot.column, 2u);
}

TEST_F(RelationalTest, BindRejectsUnknownColumn) {
  TableScope scope(*offers_);
  auto r = bind_expr(Expr::make_column("", "nosuch"), scope, {}, pool_);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(RelationalTest, BindRejectsDateVsFloatComparison) {
  // The paper's canonical static-check example (Sec. III-A).
  TableScope scope(*offers_);
  auto e = Expr::make_binary(BinaryOp::kLt,
                             Expr::make_column("", "validFrom"),
                             Expr::make_literal(Value::float64(1.5)));
  EXPECT_EQ(bind_expr(e, scope, {}, pool_).status().code(),
            StatusCode::kTypeError);
}

TEST_F(RelationalTest, BindRejectsNonBooleanWhere) {
  TableScope scope(*offers_);
  auto r = bind_predicate(Expr::make_column("", "price"), scope, {}, pool_);
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(RelationalTest, BindRejectsLogicalOnNonBoolean) {
  TableScope scope(*offers_);
  auto e = Expr::make_binary(BinaryOp::kAnd, Expr::make_column("", "price"),
                             Expr::make_literal(Value::boolean(true)));
  EXPECT_EQ(bind_expr(e, scope, {}, pool_).status().code(),
            StatusCode::kTypeError);
}

TEST_F(RelationalTest, ParameterSubstitution) {
  ParamMap params;
  params.emplace("P", Value::varchar("p1"));
  auto e = Expr::make_binary(BinaryOp::kEq, Expr::make_column("", "product"),
                             Expr::make_parameter("P"));
  auto rows = filter_rows(*offers_, *bind_offers(e, params));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(RelationalTest, UnboundParameterFails) {
  TableScope scope(*offers_);
  auto e = Expr::make_binary(BinaryOp::kEq, Expr::make_column("", "product"),
                             Expr::make_parameter("Nope"));
  EXPECT_FALSE(bind_expr(e, scope, {}, pool_).is_ok());
}

TEST_F(RelationalTest, QualifierMustMatchTableOrAlias) {
  TableScope scope(*offers_, "o");
  EXPECT_TRUE(bind_expr(Expr::make_column("o", "price"), scope, {}, pool_)
                  .is_ok());
  EXPECT_TRUE(
      bind_expr(Expr::make_column("Offers", "price"), scope, {}, pool_)
          .is_ok());
  EXPECT_FALSE(
      bind_expr(Expr::make_column("x", "price"), scope, {}, pool_).is_ok());
}

// ---- Evaluation semantics ---------------------------------------------------

TEST_F(RelationalTest, FilterNumericComparison) {
  auto e = Expr::make_binary(BinaryOp::kGe, Expr::make_column("", "price"),
                             Expr::make_literal(Value::int64(15)));
  // price >= 15: o2 (20), o3 (15), o4 (15). o5 has NULL price -> excluded.
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)),
            (std::pmr::vector<storage::RowIndex>{1, 2, 3}));
}

TEST_F(RelationalTest, NullComparisonNeverMatches) {
  auto lt = Expr::make_binary(BinaryOp::kLt,
                              Expr::make_column("", "deliveryDays"),
                              Expr::make_literal(Value::int64(100)));
  auto ge = Expr::make_binary(BinaryOp::kGe,
                              Expr::make_column("", "deliveryDays"),
                              Expr::make_literal(Value::int64(100)));
  // Row o3 has NULL deliveryDays: matches neither side.
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(lt)).size(), 4u);
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(ge)).size(), 0u);
}

TEST_F(RelationalTest, ThreeValuedOr) {
  // deliveryDays < 100 or price > 0: o3's NULL deliveryDays must still
  // match via the price disjunct.
  auto e = Expr::make_binary(
      BinaryOp::kOr,
      Expr::make_binary(BinaryOp::kLt, Expr::make_column("", "deliveryDays"),
                        Expr::make_literal(Value::int64(100))),
      Expr::make_binary(BinaryOp::kGt, Expr::make_column("", "price"),
                        Expr::make_literal(Value::int64(0))));
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)).size(), 5u);
}

TEST_F(RelationalTest, NotOperator) {
  auto e = Expr::make_unary(
      UnaryOp::kNot,
      Expr::make_binary(BinaryOp::kEq, Expr::make_column("", "product"),
                        Expr::make_literal(Value::varchar("p1"))));
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)).size(), 3u);
}

TEST_F(RelationalTest, StringOrderingComparison) {
  auto e = Expr::make_binary(BinaryOp::kGt, Expr::make_column("", "id"),
                             Expr::make_literal(Value::varchar("o3")));
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)),
            (std::pmr::vector<storage::RowIndex>{3, 4}));
}

TEST_F(RelationalTest, DateComparison) {
  auto e = Expr::make_binary(
      BinaryOp::kGe, Expr::make_column("", "validFrom"),
      Expr::make_literal(Value::date(storage::parse_date("2008-03-01")
                                         .value())));
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)).size(), 3u);
}

TEST_F(RelationalTest, ArithmeticAndDivision) {
  // price / deliveryDays > 2.8 : o1 (10/3=3.33), o2 (20/7=2.857),
  // o4 (15/2=7.5). o3 has NULL days, o5 NULL price.
  auto e = Expr::make_binary(
      BinaryOp::kGt,
      Expr::make_binary(BinaryOp::kDiv, Expr::make_column("", "price"),
                        Expr::make_column("", "deliveryDays")),
      Expr::make_literal(Value::float64(2.8)));
  EXPECT_EQ(filter_rows(*offers_, *bind_offers(e)),
            (std::pmr::vector<storage::RowIndex>{0, 1, 3}));
}

TEST_F(RelationalTest, DivisionByZeroYieldsNull) {
  auto e = Expr::make_binary(
      BinaryOp::kEq,
      Expr::make_binary(BinaryOp::kDiv, Expr::make_column("", "price"),
                        Expr::make_literal(Value::int64(0))),
      Expr::make_column("", "price"));
  EXPECT_TRUE(filter_rows(*offers_, *bind_offers(e)).empty());
}

// ---- Projection -------------------------------------------------------------

TEST_F(RelationalTest, ProjectComputedColumns) {
  TableScope scope(*offers_);
  auto expr = bind_expr(
      Expr::make_binary(BinaryOp::kMul, Expr::make_column("", "price"),
                        Expr::make_literal(Value::int64(2))),
      scope, {}, pool_);
  ASSERT_TRUE(expr.is_ok());
  std::vector<OutputColumn> outs;
  outs.push_back({"doubled", std::move(expr).value()});
  const std::vector<storage::RowIndex> rows{0, 1};
  auto out = project(*offers_, rows, outs, "T");
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out->value_at(0, 0).as_double(), 20.0);
  EXPECT_DOUBLE_EQ(out->value_at(1, 0).as_double(), 40.0);
  EXPECT_EQ(out->schema().column(0).name, "doubled");
}

// ---- Join ---------------------------------------------------------------------

TEST_F(RelationalTest, HashJoinPairs) {
  const std::vector<storage::ColumnIndex> lk{1};  // offers.product
  const std::vector<storage::ColumnIndex> rk{0};  // products.id
  auto pairs = hash_join_pairs(*offers_, lk, *products_, rk);
  ASSERT_TRUE(pairs.is_ok());
  // o1,o2 -> p1 (row 0); o3,o4 -> p2 (row 1); o5 -> p3 missing.
  EXPECT_EQ(pairs.value(),
            (std::vector<std::pair<storage::RowIndex, storage::RowIndex>>{
                {0, 0}, {1, 0}, {2, 1}, {3, 1}}));
}

TEST_F(RelationalTest, HashJoinMaterializesOutputs) {
  const std::vector<storage::ColumnIndex> lk{1};
  const std::vector<storage::ColumnIndex> rk{0};
  const std::vector<JoinOutput> outs{{JoinOutput::kLeft, 0, "offer"},
                                     {JoinOutput::kRight, 1, "label"}};
  auto t = hash_join(*offers_, lk, *products_, rk, outs, "J");
  ASSERT_TRUE(t.is_ok());
  ASSERT_EQ((*t)->num_rows(), 4u);
  EXPECT_EQ((*t)->value_at(0, 0).as_string(), "o1");
  EXPECT_EQ((*t)->value_at(0, 1).as_string(), "alpha");
  EXPECT_EQ((*t)->value_at(2, 1).as_string(), "beta");
}

TEST_F(RelationalTest, JoinRejectsMismatchedKeyTypes) {
  const std::vector<storage::ColumnIndex> lk{2};  // price (double)
  const std::vector<storage::ColumnIndex> rk{0};  // id (varchar)
  EXPECT_EQ(hash_join_pairs(*offers_, lk, *products_, rk).status().code(),
            StatusCode::kTypeError);
}

TEST_F(RelationalTest, JoinSkipsNullKeys) {
  // Join offers to itself on deliveryDays; o3's NULL never matches.
  const std::vector<storage::ColumnIndex> k{3};
  auto pairs = hash_join_pairs(*offers_, k, *offers_, k);
  ASSERT_TRUE(pairs.is_ok());
  for (const auto& [l, r] : pairs.value()) {
    EXPECT_NE(l, 2u);
    EXPECT_NE(r, 2u);
  }
  EXPECT_EQ(pairs->size(), 4u);  // o1,o2,o4,o5 each match only themselves
}

// ---- Group by / aggregates ---------------------------------------------------

TEST_F(RelationalTest, GroupByCountsAndSums) {
  const std::vector<storage::ColumnIndex> keys{1};  // product
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kSum, 2, "total"},
                                  {AggKind::kAvg, 2, "mean"},
                                  {AggKind::kMin, 3, "fastest"},
                                  {AggKind::kMax, 3, "slowest"}};
  auto g = group_by(*offers_, keys, aggs, "G");
  ASSERT_TRUE(g.is_ok());
  const Table& t = **g;
  ASSERT_EQ(t.num_rows(), 3u);  // p1, p2, p3 in first-seen order
  EXPECT_EQ(t.value_at(0, 0).as_string(), "p1");
  EXPECT_EQ(t.value_at(0, 1).as_int64(), 2);
  EXPECT_DOUBLE_EQ(t.value_at(0, 2).as_double(), 30.0);
  EXPECT_DOUBLE_EQ(t.value_at(0, 3).as_double(), 15.0);
  EXPECT_EQ(t.value_at(0, 4).as_int64(), 3);
  EXPECT_EQ(t.value_at(0, 5).as_int64(), 7);
  // p2: one NULL deliveryDays -> min=max=2; sum over price = 30.
  EXPECT_EQ(t.value_at(1, 4).as_int64(), 2);
  EXPECT_EQ(t.value_at(1, 5).as_int64(), 2);
  // p3: NULL price -> sum/avg NULL, count(*)=1.
  EXPECT_EQ(t.value_at(2, 1).as_int64(), 1);
  EXPECT_TRUE(t.value_at(2, 2).is_null());
  EXPECT_TRUE(t.value_at(2, 3).is_null());
}

TEST_F(RelationalTest, CountColumnSkipsNulls) {
  const std::vector<AggSpec> aggs{{AggKind::kCount, 3, "days"},
                                  {AggKind::kCountStar, 0, "all"}};
  auto g = group_by(*offers_, {}, aggs, "G");
  ASSERT_TRUE(g.is_ok());
  ASSERT_EQ((*g)->num_rows(), 1u);  // scalar aggregation
  EXPECT_EQ((*g)->value_at(0, 0).as_int64(), 4);  // o3 NULL skipped
  EXPECT_EQ((*g)->value_at(0, 1).as_int64(), 5);
}

TEST_F(RelationalTest, ScalarAggregationOnEmptyInput) {
  Table empty("E", offers_->schema(), pool_);
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kMin, 2, "m"}};
  auto g = group_by(empty, {}, aggs, "G");
  ASSERT_TRUE(g.is_ok());
  ASSERT_EQ((*g)->num_rows(), 1u);
  EXPECT_EQ((*g)->value_at(0, 0).as_int64(), 0);
  EXPECT_TRUE((*g)->value_at(0, 1).is_null());
}

TEST_F(RelationalTest, SumRejectsNonNumeric) {
  const std::vector<AggSpec> aggs{{AggKind::kSum, 0, "s"}};
  EXPECT_EQ(group_by(*offers_, {}, aggs, "G").status().code(),
            StatusCode::kTypeError);
}

TEST_F(RelationalTest, MinMaxOnStringsAndDates) {
  const std::vector<AggSpec> aggs{{AggKind::kMin, 0, "first_id"},
                                  {AggKind::kMax, 4, "latest"}};
  auto g = group_by(*offers_, {}, aggs, "G");
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ((*g)->value_at(0, 0).as_string(), "o1");
  EXPECT_EQ((*g)->value_at(0, 1).to_string(), "2008-04-01");
}

// ---- Order by / distinct / top ------------------------------------------------

TEST_F(RelationalTest, OrderByDescWithNullsFirst) {
  const std::vector<SortKey> keys{{2, /*descending=*/false}};
  auto t = order_by(*offers_, keys, "S");
  // Ascending: NULL price (o5) first, then 10, 15, 15, 20.
  EXPECT_TRUE(t->value_at(0, 2).is_null());
  EXPECT_DOUBLE_EQ(t->value_at(1, 2).as_double(), 10.0);
  EXPECT_DOUBLE_EQ(t->value_at(4, 2).as_double(), 20.0);
}

TEST_F(RelationalTest, OrderByIsStableOnTies) {
  const std::vector<SortKey> keys{{2, true}};  // price desc
  auto t = order_by(*offers_, keys, "S");
  // o3 and o4 tie at 15; stability keeps o3 before o4.
  EXPECT_EQ(t->value_at(1, 0).as_string(), "o3");
  EXPECT_EQ(t->value_at(2, 0).as_string(), "o4");
}

TEST_F(RelationalTest, MultiKeySort) {
  const std::vector<SortKey> keys{{1, false}, {2, true}};
  auto t = order_by(*offers_, keys, "S");
  EXPECT_EQ(t->value_at(0, 0).as_string(), "o2");  // p1 / 20
  EXPECT_EQ(t->value_at(1, 0).as_string(), "o1");  // p1 / 10
}

TEST_F(RelationalTest, DistinctDropsDuplicateRows) {
  // Project product only, then distinct.
  const std::vector<storage::RowIndex> all{0, 1, 2, 3, 4};
  const std::vector<storage::ColumnIndex> cols{1};
  auto proj = materialize(*offers_, all, cols, "P");
  auto d = distinct(*proj, "D");
  EXPECT_EQ(d->num_rows(), 3u);
  EXPECT_EQ(d->value_at(0, 0).as_string(), "p1");
  EXPECT_EQ(d->value_at(2, 0).as_string(), "p3");
}

TEST_F(RelationalTest, HeadTruncates) {
  EXPECT_EQ(head(*offers_, 2, "H")->num_rows(), 2u);
  EXPECT_EQ(head(*offers_, 99, "H")->num_rows(), 5u);
  EXPECT_EQ(head(*offers_, 0, "H")->num_rows(), 0u);
}

TEST_F(RelationalTest, MaterializeRenames) {
  const std::vector<storage::RowIndex> rows{0};
  const std::vector<storage::ColumnIndex> cols{0, 2};
  const std::vector<std::string> names{"offer_id", "cost"};
  auto t = materialize(*offers_, rows, cols, "M", &names);
  EXPECT_EQ(t->schema().column(0).name, "offer_id");
  EXPECT_EQ(t->schema().column(1).name, "cost");
}

// ---- Kernel engine equivalence (batch == row oracle) ------------------------
//
// The properties below are the contract of the batch engine: for every
// null density and every operator, the kernels must produce tables that
// are byte-identical to the row-at-a-time oracle (relational_oracle.hpp)
// — same validity words AND same raw array payloads (snapshots serialize
// the raw arrays, so payloads under null lanes count). The tables span
// three batches with a ragged tail, so every operator carries state
// across batches and storage chunks.

namespace vec_prop {

// splitmix64: deterministic across platforms (std distributions are not).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // [0, 1)
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() %
                                          static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }
};

inline TablePtr make_random_table(StringPool& pool, std::size_t rows,
                                  double null_density, std::uint64_t seed) {
  auto t = std::make_shared<Table>(
      "R",
      Schema({{"a", DataType::int64()},
              {"b", DataType::int64()},
              {"x", DataType::float64()},
              {"y", DataType::float64()},
              {"s", DataType::varchar(8)},
              {"d", DataType::date()}}),
      pool);
  static const char* kStrings[] = {"aa", "bb", "cc", "dd",
                                   "p1", "p2", "p3", "zz"};
  Rng rng{seed};
  for (std::size_t r = 0; r < rows; ++r) {
    auto maybe_null = [&](Value v) {
      return rng.unit() < null_density ? Value::null() : std::move(v);
    };
    std::vector<Value> row;
    row.push_back(maybe_null(Value::int64(rng.range(-50, 50))));
    // b includes 0 so integer subexpressions and group keys see it.
    row.push_back(maybe_null(Value::int64(rng.range(0, 9))));
    // Multiples of 1/8: exactly representable, so arithmetic results do
    // not depend on excess precision. y includes exact 0.0 (div-by-zero).
    row.push_back(
        maybe_null(Value::float64(
            static_cast<double>(rng.range(-1000, 1000)) / 8.0)));
    row.push_back(
        maybe_null(Value::float64(
            static_cast<double>(rng.range(-16, 16)) / 8.0)));
    row.push_back(maybe_null(Value::varchar(kStrings[rng.next() % 8])));
    row.push_back(maybe_null(Value::date(rng.range(13000, 13100))));
    t->append_row_unchecked(row);
  }
  return t;
}

inline ExprPtr col(const char* name) { return Expr::make_column("", name); }
inline ExprPtr i64(std::int64_t v) {
  return Expr::make_literal(Value::int64(v));
}
inline ExprPtr f64(double v) { return Expr::make_literal(Value::float64(v)); }
inline ExprPtr str(const char* v) {
  return Expr::make_literal(Value::varchar(v));
}
inline ExprPtr bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return Expr::make_binary(op, std::move(l), std::move(r));
}

/// Boolean expressions covering every kernel: comparisons on every type,
/// int and float arithmetic, division (by zero -> NULL), unary not/neg,
/// and/or over NULL-producing operands, and constant predicates.
inline std::vector<ExprPtr> predicate_corpus() {
  std::vector<ExprPtr> out;
  out.push_back(bin(BinaryOp::kGe, col("a"), i64(0)));
  out.push_back(bin(BinaryOp::kLt, col("x"), col("y")));
  out.push_back(bin(BinaryOp::kLe,
                    bin(BinaryOp::kMul,
                        bin(BinaryOp::kAdd, col("a"), col("b")), i64(2)),
                    i64(60)));
  out.push_back(bin(BinaryOp::kGt,
                    bin(BinaryOp::kDiv, col("x"), col("y")), f64(0.5)));
  out.push_back(bin(BinaryOp::kNe,
                    bin(BinaryOp::kSub, col("a"), col("b")), i64(7)));
  out.push_back(Expr::make_unary(
      UnaryOp::kNot, bin(BinaryOp::kEq, col("s"), str("cc"))));
  // not over a column-column comparison: the result's bits come from the
  // operands' validity words, so stray validity bits past the batch end
  // would surface as rows.
  out.push_back(Expr::make_unary(UnaryOp::kNot,
                                 bin(BinaryOp::kLt, col("a"), col("b"))));
  out.push_back(bin(BinaryOp::kGt, col("s"), str("bb")));
  out.push_back(bin(BinaryOp::kGe, col("d"),
                    Expr::make_literal(Value::date(13050))));
  out.push_back(bin(
      BinaryOp::kAnd,
      bin(BinaryOp::kOr, bin(BinaryOp::kLt, col("a"), i64(10)),
          bin(BinaryOp::kGe, col("x"), f64(2.5))),
      Expr::make_unary(UnaryOp::kNot,
                       bin(BinaryOp::kEq, col("b"), i64(3)))));
  out.push_back(bin(BinaryOp::kLt,
                    Expr::make_unary(UnaryOp::kNeg, col("a")), col("b")));
  // Mixed int/double comparison (promotion) and x = x (NULL screen).
  out.push_back(bin(BinaryOp::kGt, col("x"), col("a")));
  out.push_back(bin(BinaryOp::kEq, col("x"), col("x")));
  // Constant predicates: all-pass and all-filtered selection vectors.
  out.push_back(Expr::make_literal(Value::boolean(true)));
  out.push_back(Expr::make_literal(Value::boolean(false)));
  return out;
}

/// memcmp of two column payloads, chunk by chunk: the widened lanes, NULL
/// payloads included, and the validity words. The same bytes as one memcmp
/// over the flat arrays and one bitset compare, since both chunk at the
/// same rows, whatever width each side's chunks store.
template <typename T>
inline bool chunks_byte_identical(const storage::ColumnData<T>& a,
                                  const storage::ColumnData<T>& b) {
  if (a.size() != b.size()) return false;
  std::vector<T> va(kChunkRows), vb(kChunkRows);
  for (std::size_t c = 0; c < a.num_chunks(); ++c) {
    const std::size_t first = c * kChunkRows;
    const std::size_t n = std::min(kChunkRows, a.size() - first);
    a.copy_to(first, n, va.data());
    b.copy_to(first, n, vb.data());
    const auto wa = a.valid_words(c), wb = b.valid_words(c);
    if (std::memcmp(va.data(), vb.data(), n * sizeof(T)) != 0 ||
        wa.size() != wb.size() ||
        std::memcmp(wa.data(), wb.data(),
                    wa.size() * sizeof(std::uint64_t)) != 0) {
      return false;
    }
  }
  return true;
}

inline void expect_tables_byte_identical(const Table& a, const Table& b,
                                         const char* what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (std::size_t c = 0; c < a.num_columns(); ++c) {
    const storage::Column& ca = a.column(static_cast<ColumnIndex>(c));
    const storage::Column& cb = b.column(static_cast<ColumnIndex>(c));
    ASSERT_EQ(ca.type().kind, cb.type().kind) << what << " col " << c;
    switch (ca.type().kind) {
      case TypeKind::kBool:
      case TypeKind::kInt64:
      case TypeKind::kDate:
        EXPECT_TRUE(chunks_byte_identical(ca.int_chunks(), cb.int_chunks()))
            << what << " col " << c;
        break;
      case TypeKind::kDouble:
        // memcmp, not ==: catches -0.0 vs +0.0 and NaN payload drift.
        EXPECT_TRUE(
            chunks_byte_identical(ca.double_chunks(), cb.double_chunks()))
            << what << " col " << c;
        break;
      case TypeKind::kVarchar:
        EXPECT_TRUE(
            chunks_byte_identical(ca.string_chunks(), cb.string_chunks()))
            << what << " col " << c;
        break;
    }
  }
}

/// Rows of the sweep tables: three batches, the last one ragged.
constexpr std::size_t kSweepRows = 2 * kBatchRows + 555;
constexpr double kNullDensities[] = {0.0, 0.1, 0.9};

inline std::vector<storage::RowIndex> row_range(std::size_t begin,
                                                std::size_t end,
                                                std::size_t step = 1) {
  std::vector<storage::RowIndex> rows;
  for (std::size_t r = begin; r < end; r += step) {
    rows.push_back(static_cast<storage::RowIndex>(r));
  }
  return rows;
}

}  // namespace vec_prop

TEST_F(RelationalTest, VectorizedFilterMatchesRowEngine) {
  using namespace vec_prop;
  std::uint64_t seed = 1;
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    TableScope scope(*t);
    for (const ExprPtr& e : predicate_corpus()) {
      auto bound = bind_predicate(e, scope, {}, pool_);
      ASSERT_TRUE(bound.is_ok()) << e->to_string();
      const auto expected = oracle::filter_rows(*t, **bound);
      EXPECT_EQ(filter_rows(*t, **bound), expected)
          << e->to_string() << " nd=" << nd;
    }
  }
}

TEST_F(RelationalTest, VectorizedProjectMatchesRowEngine) {
  using namespace vec_prop;
  std::uint64_t seed = 100;
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    TableScope scope(*t);
    std::vector<OutputColumn> outs;
    auto add = [&](const char* name, ExprPtr e) {
      auto bound = bind_expr(e, scope, {}, pool_);
      GEMS_CHECK_MSG(bound.is_ok(), bound.status().to_string().c_str());
      outs.push_back({name, std::move(bound).value()});
    };
    add("isum", bin(BinaryOp::kAdd, col("a"), col("b")));
    add("prod", bin(BinaryOp::kMul, col("x"), col("y")));
    add("ratio", bin(BinaryOp::kDiv, col("x"), col("y")));  // /0 -> NULL
    add("mixed", bin(BinaryOp::kSub, col("x"), col("a")));
    add("neg", Expr::make_unary(UnaryOp::kNeg, col("a")));
    add("flag", Expr::make_unary(
                    UnaryOp::kNot,
                    bin(BinaryOp::kLt, col("a"), col("b"))));  // bool col
    add("name", col("s"));  // varchar passthrough
    add("when", col("d"));  // date passthrough
    // Every row, a contiguous range starting mid-chunk, and a gathered
    // subset (every third row).
    const std::vector<std::vector<storage::RowIndex>> selections{
        row_range(0, kSweepRows), row_range(1000, kSweepRows),
        row_range(0, kSweepRows, 3)};
    for (const auto& rows : selections) {
      expect_tables_byte_identical(*project(*t, rows, outs, "P"),
                                   *oracle::project(*t, rows, outs, "P"),
                                   "project");
    }
  }
}

// ---- The int64 rule: +, -, *, unary - and sum() wrap -----------------------

TEST_F(RelationalTest, Int64OverflowWrapsInKernelsEvalCellAndOracle) {
  using namespace vec_prop;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t edges[] = {kMax, kMin, -1, 1, 0, 2};
  auto t = std::make_shared<Table>(
      "W", Schema({{"a", DataType::int64()}, {"b", DataType::int64()}}),
      pool_);
  for (const std::int64_t a : edges) {
    for (const std::int64_t b : edges) {
      const Value row[] = {Value::int64(a), Value::int64(b)};
      t->append_row_unchecked(row);
    }
  }
  // The rule, restated here in unsigned arithmetic.
  const auto wrap = [](std::uint64_t v) {
    return static_cast<std::int64_t>(v);
  };
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  struct Case {
    const char* name;
    ExprPtr expr;
    std::function<std::int64_t(std::int64_t, std::int64_t)> expect;
  };
  const std::vector<Case> cases{
      {"add", bin(BinaryOp::kAdd, col("a"), col("b")),
       [&](std::int64_t a, std::int64_t b) { return wrap(u(a) + u(b)); }},
      {"sub", bin(BinaryOp::kSub, col("a"), col("b")),
       [&](std::int64_t a, std::int64_t b) { return wrap(u(a) - u(b)); }},
      {"mul", bin(BinaryOp::kMul, col("a"), col("b")),
       [&](std::int64_t a, std::int64_t b) { return wrap(u(a) * u(b)); }},
      {"neg", Expr::make_unary(UnaryOp::kNeg, col("a")),
       [&](std::int64_t a, std::int64_t) { return wrap(0 - u(a)); }},
  };
  TableScope scope(*t);
  const auto rows = row_range(0, t->num_rows());
  for (const Case& c : cases) {
    auto bound = bind_expr(c.expr, scope, {}, pool_);
    ASSERT_TRUE(bound.is_ok()) << c.name;
    std::vector<OutputColumn> outs;
    outs.push_back({"v", std::move(bound).value()});
    const TablePtr kernels = project(*t, rows, outs, "P");
    expect_tables_byte_identical(*kernels,
                                 *oracle::project(*t, rows, outs, "P"),
                                 c.name);
    for (std::size_t r = 0; r < t->num_rows(); ++r) {
      const auto row = static_cast<storage::RowIndex>(r);
      const std::int64_t a = t->column(0).int64_at(row);
      const std::int64_t b = t->column(1).int64_at(row);
      const RowCursor cursor{t.get(), row};
      const Cell cell = eval_cell(*outs[0].expr, {&cursor, 1}, pool_);
      ASSERT_FALSE(cell.null);
      EXPECT_EQ(cell.i, c.expect(a, b)) << c.name << " row " << r;
      EXPECT_EQ(kernels->column(0).int64_at(row), cell.i)
          << c.name << " row " << r;
      // The same expression over literals folds through the kernels to
      // the same cell.
      const ExprPtr lit =
          c.expr->kind == Expr::Kind::kUnary
              ? Expr::make_unary(UnaryOp::kNeg, i64(a))
              : bin(c.expr->bop, i64(a), i64(b));
      auto folded = bind_expr(lit, scope, {}, pool_);
      ASSERT_TRUE(folded.is_ok());
      const Cell f = fold_constant(**folded, pool_);
      EXPECT_FALSE(f.null);
      EXPECT_EQ(f.i, cell.i) << c.name << " folded row " << r;
    }
  }

  // sum() wraps too: every row's a, grouped by b, and all of them.
  const std::vector<AggSpec> aggs{{AggKind::kSum, 0, "s"}};
  for (const std::vector<ColumnIndex>& keys :
       {std::vector<ColumnIndex>{1}, std::vector<ColumnIndex>{}}) {
    const auto got = group_by(*t, keys, aggs, "G");
    ASSERT_TRUE(got.is_ok());
    expect_tables_byte_identical(**got, *oracle::group_by(*t, keys, aggs, "G"),
                                 "sum");
  }
  std::uint64_t total = 0;
  for (const std::int64_t a : edges) total += u(a) * std::size(edges);
  const auto scalar = group_by(*t, {}, aggs, "G");
  ASSERT_TRUE(scalar.is_ok());
  EXPECT_EQ((*scalar)->column(0).int64_at(0), wrap(total));
}

TEST_F(RelationalTest, VectorizedJoinMatchesRowEngine) {
  using namespace vec_prop;
  std::uint64_t seed = 200;
  for (const double nd : kNullDensities) {
    auto lhs = make_random_table(pool_, kBatchRows + 300, nd, seed++);
    auto rhs = make_random_table(pool_, kSweepRows, nd, seed++);
    // Varchar key (dup-heavy: 8 distinct strings) and composite
    // varchar+int key; NULL keys must never match.
    const std::vector<std::vector<ColumnIndex>> key_sets{{4}, {4, 1}};
    for (const auto& keys : key_sets) {
      // Both argument orders: the kernel builds on the smaller side.
      for (const bool swap : {false, true}) {
        const Table& l = swap ? *rhs : *lhs;
        const Table& r = swap ? *lhs : *rhs;
        const auto got = hash_join_pairs(l, keys, r, keys);
        ASSERT_TRUE(got.is_ok());
        EXPECT_EQ(got.value(), oracle::join_pairs(l, keys, r, keys))
            << "keys=" << keys.size() << " swap=" << swap << " nd=" << nd;
      }
      const std::vector<JoinOutput> outs{{JoinOutput::kLeft, 0, "la"},
                                         {JoinOutput::kLeft, 2, "lx"},
                                         {JoinOutput::kRight, 4, "rs"},
                                         {JoinOutput::kRight, 3, "ry"}};
      const auto got = hash_join(*lhs, keys, *rhs, keys, outs, "J");
      ASSERT_TRUE(got.is_ok());
      expect_tables_byte_identical(
          **got, *oracle::join(*lhs, keys, *rhs, keys, outs, "J"),
          "hash_join");
    }
  }
}

TEST_F(RelationalTest, VectorizedGroupByMatchesRowEngine) {
  using namespace vec_prop;
  std::uint64_t seed = 300;
  const std::vector<AggSpec> aggs{
      {AggKind::kCountStar, 0, "n"},    {AggKind::kCount, 2, "nx"},
      {AggKind::kSum, 0, "suma"},       {AggKind::kSum, 2, "sumx"},
      {AggKind::kAvg, 0, "avga"},       {AggKind::kAvg, 2, "avgx"},
      {AggKind::kMin, 2, "minx"},       {AggKind::kMax, 4, "maxs"},
      {AggKind::kMin, 5, "mind"}};
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    // Composite varchar+int key, single int and double keys (NULL is a
    // groupable key value), and keyless scalar aggregation.
    const std::vector<std::vector<ColumnIndex>> key_sets{
        {4, 1}, {1}, {3}, {}};
    for (const auto& keys : key_sets) {
      const auto got = group_by(*t, keys, aggs, "G");
      ASSERT_TRUE(got.is_ok());
      // Byte-identity includes the double sum/avg columns: the kernels
      // must accumulate in row order, as the oracle does.
      expect_tables_byte_identical(
          **got, *oracle::group_by(*t, keys, aggs, "G"), "group_by");
    }
  }
}

TEST_F(RelationalTest, VectorizedDistinctMatchesRowEngine) {
  using namespace vec_prop;
  std::uint64_t seed = 400;
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    const auto all = row_range(0, kSweepRows);
    // Project to dup-heavy columns first so distinct actually collapses:
    // one column and two.
    const std::vector<std::vector<ColumnIndex>> col_sets{{4}, {1, 4}};
    for (const auto& cols : col_sets) {
      auto narrow = materialize(*t, all, cols, "N");
      expect_tables_byte_identical(*distinct(*narrow, "D"),
                                   *oracle::distinct(*narrow, "D"),
                                   "distinct");
    }
  }
}

// Group-by and distinct grow their one hash index (group_rows' IdTable)
// as new keys arrive, re-placing it at the smallest capacity that keeps
// the groups so far plus one batch at load 7/8 or below. Distinct-key
// counts just below, at and above 7/8 of each capacity give the
// oracle's bytes, for one key column and two.
TEST_F(RelationalTest, HashRebuildBoundariesMatchRowEngine) {
  using namespace vec_prop;
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kSum, 3, "sv"}};
  for (std::size_t capacity = 16; capacity <= 8192; capacity *= 2) {
    const std::size_t full = capacity / 8 * 7;
    for (const std::size_t keys : {full - 1, full, full + 1}) {
      SCOPED_TRACE(keys);
      auto t = std::make_shared<Table>(
          "K",
          Schema({{"id", DataType::int64()},
                  {"hi", DataType::int64()},
                  {"lo", DataType::int64()},
                  {"v", DataType::float64()}}),
          pool_);
      // Every key appears at least twice, in a scattered order (7919 is
      // prime, so r -> 7919 r mod keys visits every residue).
      const std::size_t rows = 2 * keys + 37;
      for (std::size_t r = 0; r < rows; ++r) {
        const auto id = static_cast<std::int64_t>((r * 7919) % keys);
        const std::vector<Value> row{
            Value::int64(id), Value::int64(id / 3), Value::int64(id % 3),
            Value::float64(static_cast<double>(r) / 8)};
        t->append_row_unchecked(row);
      }
      const auto all = row_range(0, rows);
      for (const std::vector<ColumnIndex>& cols :
           {std::vector<ColumnIndex>{0}, std::vector<ColumnIndex>{1, 2}}) {
        const auto got = group_by(*t, cols, aggs, "G");
        ASSERT_TRUE(got.is_ok());
        ASSERT_EQ((*got)->num_rows(), keys);
        expect_tables_byte_identical(
            **got, *oracle::group_by(*t, cols, aggs, "G"), "group_by");
        const TablePtr narrow = materialize(*t, all, cols, "N");
        expect_tables_byte_identical(*distinct(*narrow, "D"),
                                     *oracle::distinct(*narrow, "D"),
                                     "distinct");
      }
    }
  }
}

// Keys no random sweep table draws: -0.0 and +0.0 (one group), two NaN
// payloads (two groups), both infinities and NULL, over three batches so
// the index grows while they arrive. One key column and two, in both
// orders, give the oracle's bytes.
TEST_F(RelationalTest, AdversarialGroupingKeysMatchRowEngine) {
  using namespace vec_prop;
  const double kNan1 = std::bit_cast<double>(0x7ff8000000000000ull);
  const double kNan2 = std::bit_cast<double>(0x7ff8000000000001ull);
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Value> xs{Value::float64(-0.0), Value::float64(0.0),
                              Value::float64(kNan1), Value::float64(kNan2),
                              Value::float64(kInf),  Value::float64(-kInf),
                              Value::null(),         Value::float64(1.5)};
  auto t = std::make_shared<Table>(
      "A",
      Schema({{"x", DataType::float64()},
              {"k", DataType::int64()},
              {"v", DataType::float64()}}),
      pool_);
  Rng rng{77};
  for (std::size_t r = 0; r < kSweepRows; ++r) {
    const std::int64_t k = rng.range(0, 2);
    t->append_row_unchecked(std::vector<Value>{
        xs[rng.next() % xs.size()],
        k == 2 ? Value::null() : Value::int64(k),
        Value::float64(static_cast<double>(rng.range(-64, 64)) / 8)});
  }
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kSum, 2, "sv"},
                                  {AggKind::kMin, 0, "minx"}};
  const auto all = row_range(0, kSweepRows);
  for (const std::vector<ColumnIndex>& cols :
       {std::vector<ColumnIndex>{0}, std::vector<ColumnIndex>{0, 1},
        std::vector<ColumnIndex>{1, 0}}) {
    SCOPED_TRACE(cols.size());
    const auto got = group_by(*t, cols, aggs, "G");
    ASSERT_TRUE(got.is_ok());
    // Seven x values: the zeros share a group, the NaNs do not.
    if (cols.size() == 1) {
      EXPECT_EQ((*got)->num_rows(), 7u);
    }
    expect_tables_byte_identical(**got, *oracle::group_by(*t, cols, aggs, "G"),
                                 "group_by");
    const TablePtr narrow = materialize(*t, all, cols, "N");
    const TablePtr d = distinct(*narrow, "D");
    if (cols.size() == 1) {
      EXPECT_EQ(d->num_rows(), 7u);
    }
    expect_tables_byte_identical(*d, *oracle::distinct(*narrow, "D"),
                                 "distinct");
  }
}

TEST_F(RelationalTest, VectorizedEmptyAndAllFilteredInputs) {
  using namespace vec_prop;
  auto t = make_random_table(pool_, kSweepRows, 0.1, 7);
  TableScope scope(*t);
  // All-filtered: a constant-false predicate and one no row satisfies.
  for (const ExprPtr& e :
       {Expr::make_literal(Value::boolean(false)),
        bin(BinaryOp::kGt, col("a"), i64(1000))}) {
    auto none = bind_predicate(e, scope, {}, pool_);
    ASSERT_TRUE(none.is_ok());
    EXPECT_TRUE(filter_rows(*t, **none).empty()) << e->to_string();
  }
  // Empty selection vectors through project.
  const std::vector<storage::RowIndex> no_rows;
  std::vector<OutputColumn> outs;
  auto sum = bind_expr(bin(BinaryOp::kAdd, col("a"), col("b")), scope, {},
                       pool_);
  ASSERT_TRUE(sum.is_ok());
  outs.push_back({"sum", std::move(sum).value()});
  const auto projected = project(*t, no_rows, outs, "P");
  ASSERT_EQ(projected->num_rows(), 0u);
  expect_tables_byte_identical(
      *projected, *oracle::project(*t, no_rows, outs, "P"), "empty project");
  // An empty table through filter, group_by (keyed: no rows; keyless:
  // one row) and distinct.
  Table empty("E", t->schema(), pool_);
  auto pred = bind_predicate(bin(BinaryOp::kGe, col("a"), i64(0)), scope,
                             {}, pool_);
  ASSERT_TRUE(pred.is_ok());
  EXPECT_TRUE(filter_rows(empty, **pred).empty());
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kSum, 2, "sumx"}};
  for (const auto& keys : std::vector<std::vector<ColumnIndex>>{{1}, {}}) {
    const auto g = group_by(empty, keys, aggs, "G");
    ASSERT_TRUE(g.is_ok());
    EXPECT_EQ((*g)->num_rows(), keys.empty() ? 1u : 0u);
    expect_tables_byte_identical(
        **g, *oracle::group_by(empty, keys, aggs, "G"), "empty group_by");
  }
  EXPECT_EQ(distinct(empty, "D")->num_rows(), 0u);
}

// Contiguous windows that start off a batch boundary, as a vertex filter
// extended over appended rows does: every window then straddles a
// storage chunk, and the last one is ragged.
TEST_F(RelationalTest, VectorizedSweepAcrossChunks) {
  using namespace vec_prop;
  constexpr std::size_t kFirstRows[] = {1,    7,    1000,          1023,
                                        1025, 2047, kSweepRows - 1, kSweepRows};
  std::uint64_t seed = 900;
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    TableScope scope(*t);
    for (const ExprPtr& e : predicate_corpus()) {
      auto bound = bind_predicate(e, scope, {}, pool_);
      ASSERT_TRUE(bound.is_ok()) << e->to_string();
      for (const std::size_t first : kFirstRows) {
        const auto row = static_cast<storage::RowIndex>(first);
        EXPECT_EQ(filter_rows(*t, **bound, row),
                  oracle::filter_rows(*t, **bound, row))
            << e->to_string() << " first=" << first << " nd=" << nd;
      }
    }
  }
}

// A table statement's operators take their temporary arrays from a
// ScratchArena (DESIGN.md §5n). Drawn from one, group_by, distinct,
// order_by and head still give the oracle's bytes on multi-chunk tables.
TEST_F(RelationalTest, ScratchArenaOperatorsMatchRowEngine) {
  using namespace vec_prop;
  const std::vector<AggSpec> aggs{
      {AggKind::kCountStar, 0, "n"}, {AggKind::kSum, 0, "suma"},
      {AggKind::kAvg, 2, "avgx"},    {AggKind::kMin, 4, "mins"},
      {AggKind::kMax, 5, "maxd"}};
  const std::vector<std::vector<SortKey>> orders{
      {{1, false}, {2, true}}, {{4, true}, {0, false}}, {{3, false}}, {}};
  std::uint64_t seed = 1000;
  for (const double nd : kNullDensities) {
    auto t = make_random_table(pool_, kSweepRows, nd, seed++);
    {
      ScratchArena scratch;
      for (const auto& keys :
           std::vector<std::vector<ColumnIndex>>{{4, 1}, {1}, {}}) {
        const auto got = group_by(*t, keys, aggs, "G", &scratch);
        ASSERT_TRUE(got.is_ok());
        expect_tables_byte_identical(**got,
                                     *oracle::group_by(*t, keys, aggs, "G"),
                                     "scratch group_by");
      }
      const auto all = row_range(0, kSweepRows);
      for (const auto& cols :
           std::vector<std::vector<ColumnIndex>>{{4}, {1, 4}}) {
        auto narrow = materialize(*t, all, cols, "N");
        expect_tables_byte_identical(*distinct(*narrow, "D", &scratch),
                                     *oracle::distinct(*narrow, "D"),
                                     "scratch distinct");
      }
      for (const auto& keys : orders) {
        expect_tables_byte_identical(*order_by(*t, keys, "O", &scratch),
                                     *oracle::order_by(*t, keys, "O"),
                                     "scratch order_by");
      }
      for (const std::size_t n : {std::size_t{0}, std::size_t{10},
                                  kBatchRows + 1, kSweepRows + 5}) {
        expect_tables_byte_identical(*head(*t, n, "H", &scratch),
                                     *oracle::head(*t, n, "H"),
                                     "scratch head");
      }
      EXPECT_GT(scratch.mapped_bytes(), 0u);
    }
    EXPECT_EQ(ScratchArena::live_mapped_bytes(), 0u);
  }
}

// Table statements over a multi-chunk table give the oracle's bytes, and
// once a statement returns no arena block is still mapped.
TEST(ScratchStatementTest, TableStatementsUnmapTheirScratch) {
  auto built =
      bsbm::make_populated_database(bsbm::GeneratorConfig::derive(700, 5));
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  server::Database& db = **built;
  const auto run = [&](const std::string& text) -> TablePtr {
    auto results = db.run_script(text);
    EXPECT_TRUE(results.is_ok()) << text << ": "
                                 << results.status().to_string();
    EXPECT_EQ(ScratchArena::live_mapped_bytes(), 0u) << text;
    return results.is_ok() ? results->back().table : nullptr;
  };
  // product (varchar), price (double), deliveryDays (int), validFrom
  // (date), as the statements below project them.
  const TablePtr offers =
      run("select product, price, deliveryDays, validFrom from table Offers");
  ASSERT_NE(offers, nullptr);
  ASSERT_GT(offers->num_rows(), 3 * kBatchRows);
  const auto all = vec_prop::row_range(0, offers->num_rows());

  const TablePtr grouped = run(
      "select product, count(*) as n, avg(price) as p, max(validFrom) as v "
      "from table Offers group by product");
  ASSERT_NE(grouped, nullptr);
  const std::vector<ColumnIndex> key{0};
  const std::vector<AggSpec> aggs{{AggKind::kCountStar, 0, "n"},
                                  {AggKind::kAvg, 1, "p"},
                                  {AggKind::kMax, 3, "v"}};
  vec_prop::expect_tables_byte_identical(
      *grouped, *oracle::group_by(*offers, key, aggs, "G"), "group by");

  const TablePtr distinct_days =
      run("select distinct deliveryDays from table Offers");
  ASSERT_NE(distinct_days, nullptr);
  const std::vector<ColumnIndex> days{2};
  vec_prop::expect_tables_byte_identical(
      *distinct_days,
      *oracle::distinct(*materialize(*offers, all, days, "N"), "D"),
      "distinct");

  const TablePtr ordered = run(
      "select top 2500 product, price, deliveryDays, validFrom "
      "from table Offers order by deliveryDays desc, price");
  ASSERT_NE(ordered, nullptr);
  const std::vector<SortKey> keys{{2, true}, {1, false}};
  const TablePtr sorted = oracle::order_by(*offers, keys, "O");
  vec_prop::expect_tables_byte_identical(
      *ordered, *oracle::head(*sorted, 2500, "H"), "order by, top");
}

// ---- Table statements against the pipeline they replaced ---------------------
//
// A table statement filters, groups, dedups, orders and cuts on row lists
// and builds only its grouped table and its result. The pipeline before
// built a table at each step: the group keys and aggregate inputs
// projected into `$pre`, the grouped table, the outputs, then distinct,
// order by and top n each over the previous table. old_pipeline composes
// that pipeline from the row oracle; every statement shape gives its
// bytes and its column names.

/// The replaced table-statement pipeline over the row oracle.
TablePtr old_pipeline(const graql::TableQueryStmt& stmt, const Table& src,
                      StringPool& pool) {
  const TableScope scope(src);
  std::vector<storage::RowIndex> rows;
  if (stmt.where) {
    auto pred = bind_predicate(stmt.where, scope, {}, pool);
    GEMS_CHECK(pred.is_ok());
    const auto kept = oracle::filter_rows(src, **pred);
    rows.assign(kept.begin(), kept.end());
  } else {
    rows = vec_prop::row_range(0, src.num_rows());
  }
  const auto bind = [&](const ExprPtr& e) {
    auto bound = bind_expr(e, scope, {}, pool);
    GEMS_CHECK(bound.is_ok());
    return std::move(bound).value();
  };
  const auto shape = graql::table_query_shape(
      stmt, src.schema(), std::vector<MaybeType>(stmt.items.size()));
  GEMS_CHECK(shape.errors.empty());
  const std::vector<graql::TableOutput>* columns = &shape.outputs;
  const bool grouped =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const auto& i) {
        return i.agg != graql::AggFunc::kNone;
      });

  TablePtr out;
  if (!grouped) {
    std::vector<OutputColumn> outputs;
    for (const graql::TableOutput& c : *columns) {
      outputs.push_back(
          {c.name, bind(c.item != nullptr
                            ? c.item->expr
                            : Expr::make_column(
                                  "", src.schema().column(*c.source_column)
                                          .name))});
    }
    bool on_output = true;
    for (const auto& ord : stmt.order_by) {
      on_output &= std::any_of(outputs.begin(), outputs.end(),
                               [&](const auto& o) { return o.name == ord.column; });
    }
    // Source order keys sorted the row list before projection.
    const Table* input = &src;
    TablePtr sorted;
    if (!on_output) {
      std::vector<SortKey> keys;
      for (const auto& ord : stmt.order_by) {
        keys.push_back({*src.schema().find(ord.column), ord.descending});
      }
      sorted = oracle::order_by(
          *materialize(src, rows, oracle::all_columns(src), "S"), keys, "S");
      input = sorted.get();
      rows = vec_prop::row_range(0, sorted->num_rows());
    }
    out = oracle::project(*input, rows, outputs, "result");
    if (stmt.distinct) out = oracle::distinct(*out, "result");
    if (!stmt.order_by.empty() && on_output) {
      std::vector<SortKey> keys;
      for (const auto& ord : stmt.order_by) {
        keys.push_back({*out->schema().find(ord.column), ord.descending});
      }
      out = oracle::order_by(*out, keys, "result");
    }
  } else {
    std::vector<OutputColumn> pre_outputs;
    for (std::size_t k = 0; k < stmt.group_by.size(); ++k) {
      pre_outputs.push_back({"g" + std::to_string(k),
                             bind(Expr::make_column("", stmt.group_by[k]))});
    }
    std::vector<AggSpec> aggs;
    std::vector<ColumnIndex> out_cols;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const graql::SelectItem& item = stmt.items[i];
      names.push_back((*columns)[i].name);
      if (item.agg == graql::AggFunc::kNone) {
        out_cols.push_back(static_cast<ColumnIndex>(
            std::find(stmt.group_by.begin(), stmt.group_by.end(),
                      item.expr->column) -
            stmt.group_by.begin()));
        continue;
      }
      out_cols.push_back(
          static_cast<ColumnIndex>(stmt.group_by.size() + aggs.size()));
      AggSpec spec{graql::agg_kind(item.agg), 0, "a" + std::to_string(i)};
      if (item.agg != graql::AggFunc::kCountStar) {
        spec.input = static_cast<ColumnIndex>(pre_outputs.size());
        pre_outputs.push_back({"in" + std::to_string(i), bind(item.expr)});
      }
      aggs.push_back(spec);
    }
    const TablePtr pre = oracle::project(src, rows, pre_outputs, "$pre");
    std::vector<ColumnIndex> keys(stmt.group_by.size());
    std::iota(keys.begin(), keys.end(), ColumnIndex{0});
    const TablePtr g = oracle::group_by(*pre, keys, aggs, "$grouped");
    out = materialize(*g, vec_prop::row_range(0, g->num_rows()), out_cols,
                      "result", &names);
    if (stmt.distinct) out = oracle::distinct(*out, "result");
    if (!stmt.order_by.empty()) {
      std::vector<SortKey> sort_keys;
      for (const auto& ord : stmt.order_by) {
        sort_keys.push_back({*out->schema().find(ord.column), ord.descending});
      }
      out = oracle::order_by(*out, sort_keys, "result");
    }
  }
  if (stmt.top_n > 0) out = oracle::head(*out, stmt.top_n, "result");
  return out;
}

TEST(TableStatementPipelineTest, EveryShapeMatchesTheOldPipeline) {
  const char* const kStatements[] = {
      // WHERE + group.
      "select b, count(*) as n, sum(a) as sa, avg(x) as mx "
      "from table R where a >= 0 group by b",
      // Expression aggregate inputs, int and double, promoted and not.
      "select s, sum(a * 2 + b) as e, avg(x + a) as m, min(x * 2) as lo, "
      "max(d) as hi, count(y - x) as c from table R group by s",
      // NULL keys, two of them; scalar aggregation.
      "select s, b, count(x) as c, min(s) as ms from table R group by s, b",
      "select count(*) as n, sum(x) as sx, max(s) as ms from table R "
      "where b > 20",
      // top n with ties across the n boundary, on the source and on
      // grouped outputs, and top n past the row count.
      "select top 100 a, b, s from table R order by b desc",
      "select top 12 s, b, count(*) as n from table R group by s, b "
      "order by b",
      "select top 100000 a, x from table R where b = 3 order by x",
      "select top 1000 b, count(*) as n from table R group by b "
      "order by n desc",
      "select top 5 a, s from table R",
      // distinct + order by, plain and grouped.
      "select distinct s, b from table R order by s, b desc",
      "select top 4 distinct b from table R where a < 0 order by b",
      "select distinct count(*) as n from table R group by a order by n",
      "select distinct s from table R",
      // Order keys naming aliased outputs: computed, a column reference,
      // an aggregate; and source columns outside the output.
      "select a as k, x * 2 as dx from table R order by dx desc, k",
      "select top 20 a as k, s from table R order by k",
      "select b as g, count(*) as n, avg(y) as m from table R group by b "
      "order by m desc, g",
      "select top 10 s from table R order by a desc, x",
      "select * from table R where x > 0 order by d, a",
      // One column grouped twice: internal key columns are named by
      // position.
      "select b, count(*) as n from table R group by b, b "
      "order by n desc, b",
  };
  std::uint64_t seed = 1100;
  for (const double nd : vec_prop::kNullDensities) {
    StringPool pool;
    exec::ExecContext ctx;
    ctx.pool = &pool;
    const TablePtr src = vec_prop::make_random_table(
        pool, vec_prop::kSweepRows, nd, seed++);
    ASSERT_TRUE(ctx.tables.add(src).is_ok());
    const ParamMap params;
    for (const char* text : kStatements) {
      SCOPED_TRACE(std::string(text) + " nd=" + std::to_string(nd));
      auto script = graql::parse_script(text);
      ASSERT_TRUE(script.is_ok()) << script.status().to_string();
      ASSERT_EQ(script->statements.size(), 1u);
      auto got = exec::execute_statement_read(script->statements[0],
                                              {&ctx, &params, nullptr});
      ASSERT_TRUE(got.is_ok()) << got.status().to_string();
      const TablePtr want = old_pipeline(
          std::get<graql::TableQueryStmt>(script->statements[0]), *src,
          pool);
      vec_prop::expect_tables_byte_identical(*got->table, *want, text);
      ASSERT_EQ(got->table->num_columns(), want->num_columns());
      for (std::size_t c = 0; c < want->num_columns(); ++c) {
        const auto col = static_cast<ColumnIndex>(c);
        EXPECT_EQ(got->table->schema().column(col).name,
                  want->schema().column(col).name);
      }
    }
    EXPECT_EQ(ScratchArena::live_mapped_bytes(), 0u);
  }
}

TEST(NullSemanticsTest, Sql3vlWordFormulasMatchTruthTables) {
  // All nine operand combinations, one per lane: lane = 3*l + r.
  std::uint64_t lv = 0, ld = 0, rv = 0, rd = 0;
  auto encode = [](Tri t, std::uint64_t& value, std::uint64_t& valid,
                   std::size_t lane) {
    if (t != Tri::kNull) valid |= 1ull << lane;
    if (t == Tri::kTrue) value |= 1ull << lane;
  };
  const Tri all[] = {Tri::kFalse, Tri::kTrue, Tri::kNull};
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) {
      const std::size_t lane = static_cast<std::size_t>(3 * l + r);
      encode(all[l], lv, ld, lane);
      encode(all[r], rv, rd, lane);
    }
  }
  auto decode = [](std::uint64_t value, std::uint64_t valid,
                   std::size_t lane) {
    if ((valid >> lane & 1) == 0) return Tri::kNull;
    return (value >> lane & 1) != 0 ? Tri::kTrue : Tri::kFalse;
  };
  std::uint64_t value = 0, valid = 0;
  and3_words(lv, ld, rv, rd, value, valid);
  EXPECT_EQ(value & ~valid, 0u) << "and: value must stay within valid";
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) {
      const std::size_t lane = static_cast<std::size_t>(3 * l + r);
      EXPECT_EQ(decode(value, valid, lane), kAnd3[l][r])
          << "and lane " << lane;
    }
  }
  or3_words(lv, ld, rv, rd, value, valid);
  EXPECT_EQ(value & ~valid, 0u) << "or: value must stay within valid";
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) {
      const std::size_t lane = static_cast<std::size_t>(3 * l + r);
      EXPECT_EQ(decode(value, valid, lane), kOr3[l][r])
          << "or lane " << lane;
    }
  }
  not3_words(lv, ld, value, valid);
  EXPECT_EQ(value & ~valid, 0u) << "not: value must stay within valid";
  for (std::size_t lane = 0; lane < 9; ++lane) {
    EXPECT_EQ(decode(value, valid, lane),
              kNot3[static_cast<int>(decode(lv, ld, lane))])
        << "not lane " << lane;
  }
}

TEST_F(RelationalTest, VectorizedCompareAdversarialLanesMatchRowEngine) {
  // The compare kernels against the row oracle over adversarial lanes:
  // NaN, +/-0.0, +/-inf, INT64_MIN/MAX and a deterministic random fill.
  // 133 rows = two full words plus a five-lane tail (the partial-word
  // assembly path). Each row holds one double pair (x, y) and one int64
  // pair (a, b).
  using namespace vec_prop;
  constexpr std::size_t kN = 133;
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0,
                             -0.0,
                             1.5};
  const std::int64_t ispecials[] = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    0, -1, 1, 42};
  auto t = std::make_shared<Table>("K",
                                   Schema({{"x", DataType::float64()},
                                           {"y", DataType::float64()},
                                           {"a", DataType::int64()},
                                           {"b", DataType::int64()}}),
                                   pool_);
  Rng rng{42};
  for (std::size_t i = 0; i < kN; ++i) {
    std::vector<Value> row;
    if (i < 36) {
      // Full cross product of the special values in the leading rows.
      row = {Value::float64(specials[i / 6]), Value::float64(specials[i % 6]),
             Value::int64(ispecials[i / 6]), Value::int64(ispecials[i % 6])};
    } else {
      row = {Value::float64(static_cast<double>(rng.range(-4, 4)) / 2.0),
             Value::float64(static_cast<double>(rng.range(-4, 4)) / 2.0),
             Value::int64(rng.range(-5, 5)), Value::int64(rng.range(-5, 5))};
    }
    t->append_row_unchecked(row);
  }
  TableScope scope(*t);
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  const std::pair<const char*, const char*> pairs[] = {{"x", "y"},
                                                       {"a", "b"}};
  for (const BinaryOp op : ops) {
    for (const auto& [l, r] : pairs) {
      const ExprPtr e = bin(op, col(l), col(r));
      auto bound = bind_predicate(e, scope, {}, pool_);
      ASSERT_TRUE(bound.is_ok()) << e->to_string();
      std::vector<bool> accepted(kN, false);
      for (const storage::RowIndex row : filter_rows(*t, **bound)) {
        accepted[row] = true;
      }
      RowCursor cursor{t.get(), 0};
      for (std::size_t i = 0; i < kN; ++i) {
        cursor.row = static_cast<storage::RowIndex>(i);
        EXPECT_EQ(accepted[i],
                  eval_predicate(**bound, {&cursor, 1}, pool_))
            << e->to_string() << " row " << i;
      }
    }
  }
}

// ---- Row-key hash forms ----------------------------------------------------

// A key has one hash whichever form computes it: group_rows builds its
// index with hash_key_cells over key_cells_batch cells, and the edge
// build's hashed attach probes that index with hash_cell_key, so the forms
// must agree with each other and with hash_row_key. Cells must also be
// equal exactly when the keys' encode_row_key bytes are. Every column kind
// at 1-3 key columns, with NULL, both zeros, two NaN payloads, both
// infinities, the int64 extremes, bools, dates and strings.
TEST(RowKeyTest, EveryHashFormAgrees) {
  StringPool pool;
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Value>> domains{
      {Value::null(), Value::boolean(false), Value::boolean(true)},
      {Value::null(), Value::int64(0), Value::int64(-1),
       Value::int64(std::numeric_limits<std::int64_t>::min()),
       Value::int64(std::numeric_limits<std::int64_t>::max())},
      {Value::null(), Value::float64(0.0), Value::float64(-0.0),
       Value::float64(std::bit_cast<double>(0x7ff8000000000000ull)),
       Value::float64(std::bit_cast<double>(0xfff8000000000001ull)),
       Value::float64(kInf), Value::float64(-kInf), Value::float64(-2.5)},
      {Value::null(), Value::date(0), Value::date(13000), Value::date(-1)},
      {Value::null(), Value::varchar(""), Value::varchar("a"),
       Value::varchar("b")}};
  Table t("K",
          Schema({{"b", DataType::boolean()},
                  {"i", DataType::int64()},
                  {"x", DataType::float64()},
                  {"d", DataType::date()},
                  {"s", DataType::varchar(4)}}),
          pool);
  // Each row draws every column independently; the second half repeats
  // the first with the zeros' signs swapped, so equal keys also come in
  // different bits.
  constexpr std::size_t kHalf = 120;
  vec_prop::Rng rng{11};
  std::vector<std::vector<Value>> rows;
  for (std::size_t r = 0; r < kHalf; ++r) {
    std::vector<Value> row;
    for (const auto& domain : domains) {
      row.push_back(domain[rng.next() % domain.size()]);
    }
    rows.push_back(row);
  }
  for (std::size_t r = 0; r < kHalf; ++r) {
    std::vector<Value> row = rows[r];
    if (!row[2].is_null() && row[2].as_double() == 0.0) {
      row[2] = Value::float64(std::signbit(row[2].as_double()) ? 0.0 : -0.0);
    }
    rows.push_back(std::move(row));
  }
  for (const auto& row : rows) t.append_row_unchecked(row);
  const std::size_t n = rows.size();

  // Every list of 1-3 distinct key columns, in ascending order.
  std::vector<std::vector<ColumnIndex>> key_sets;
  for (ColumnIndex a = 0; a < 5; ++a) {
    key_sets.push_back({a});
    for (ColumnIndex b = a + 1; b < 5; ++b) {
      key_sets.push_back({a, b});
      for (ColumnIndex c = b + 1; c < 5; ++c) key_sets.push_back({a, b, c});
    }
  }
  // The gathered form of key_cells_batch reads rows in reverse.
  std::vector<storage::RowIndex> reversed(n);
  for (std::size_t r = 0; r < n; ++r) {
    reversed[r] = static_cast<storage::RowIndex>(n - 1 - r);
  }
  for (const auto& cols : key_sets) {
    SCOPED_TRACE(::testing::PrintToString(cols));
    const std::size_t nc = cols.size();
    std::vector<std::uint64_t> bits(n * nc), gathered_bits(n * nc);
    std::vector<std::uint8_t> nulls(n * nc), gathered_nulls(n * nc);
    for (std::size_t c = 0; c < nc; ++c) {
      key_cells_batch(t, 0, nullptr, n, cols[c], bits.data() + c * n,
                      nulls.data() + c * n);
      key_cells_batch(t, 0, reversed.data(), n, cols[c],
                      gathered_bits.data() + c * n,
                      gathered_nulls.data() + c * n);
    }
    std::vector<std::uint64_t> hashes(n), gathered_hashes(n);
    hash_key_cells(bits.data(), nulls.data(), n, nc, n, hashes.data());
    hash_key_cells(gathered_bits.data(), gathered_nulls.data(), n, nc, n,
                   gathered_hashes.data());
    std::vector<std::string> encoded(n);
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = static_cast<storage::RowIndex>(r);
      encoded[r] = encode_row_key(t, row, cols);
      std::vector<KeyCell> cells;
      for (const ColumnIndex c : cols) cells.push_back({&t.column(c), row});
      const std::uint64_t h = hash_row_key(t, row, cols);
      ASSERT_EQ(hashes[r], h) << "row " << r;
      ASSERT_EQ(gathered_hashes[n - 1 - r], h) << "row " << r;
      ASSERT_EQ(hash_cell_key(cells), h) << "row " << r;
      for (std::size_t c = 0; c < nc; ++c) {
        ASSERT_EQ(gathered_bits[c * n + n - 1 - r], bits[c * n + r]);
        ASSERT_EQ(gathered_nulls[c * n + n - 1 - r], nulls[c * n + r]);
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        bool cells_equal = true;
        for (std::size_t c = 0; c < nc; ++c) {
          cells_equal = cells_equal && bits[c * n + a] == bits[c * n + b] &&
                        nulls[c * n + a] == nulls[c * n + b];
        }
        const bool same_bytes = encoded[a] == encoded[b];
        ASSERT_EQ(cells_equal, same_bytes) << "rows " << a << ", " << b;
        ASSERT_EQ(row_keys_equal(t, static_cast<storage::RowIndex>(a), cols,
                                 t, static_cast<storage::RowIndex>(b), cols),
                  same_bytes)
            << "rows " << a << ", " << b;
        if (same_bytes) {
          ASSERT_EQ(hashes[a], hashes[b]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gems::relational
