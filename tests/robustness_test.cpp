// Robustness / fuzz-style tests: malformed GraQL never crashes the
// front-end (it fails with a clean Status), mutated IR never crashes the
// decoder, and hostile CSV never corrupts tables.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "graql/ir.hpp"
#include "graql/lexer.hpp"
#include "graql/parser.hpp"
#include "storage/csv.hpp"

namespace gems::graql {
namespace {

// ---- Lexer/parser on garbage ------------------------------------------------

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomBytesNeverCrashLexerOrParser) {
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string input;
    const std::size_t len = rng.below(120);
    for (std::size_t i = 0; i < len; ++i) {
      // Printable-heavy mix with occasional control bytes.
      const char c = rng.chance(0.95)
                         ? static_cast<char>(32 + rng.below(95))
                         : static_cast<char>(rng.below(32));
      input.push_back(c);
    }
    // Must return (ok or error), never crash.
    auto script = parse_script(input);
    (void)script;
  }
}

TEST_P(FuzzTest, TokenSoupNeverCrashesParser) {
  Xoshiro256 rng(GetParam() ^ 0x5eedu);
  const char* fragments[] = {
      "select", "create", "table", "vertex", "edge", "from", "graph",
      "where",  "into",   "subgraph", "def",  "foreach", "and", "or",
      "(",      ")",      "[",     "]",     "{",    "}",   "-->", "<--",
      "--",     "*",      "+",     ",",     ".",    ":",   "ident",
      "V1",     "'str'",  "%P%",   "42",    "3.5",  "top", "group", "by",
      "order",  "count",  "as",    "=",     "<>",   "ingest", "output",
  };
  for (int round = 0; round < 300; ++round) {
    std::string input;
    const std::size_t n = rng.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      input += fragments[rng.below(std::size(fragments))];
      input += ' ';
    }
    auto script = parse_script(input);
    (void)script;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- IR mutation ---------------------------------------------------------------

TEST(IrFuzzTest, MutatedIrFailsCleanly) {
  auto script = parse_script(
      "create table T(id varchar(10), w integer)\n"
      "create vertex V(id) from table T\n"
      "select V.id from graph V(w > 3) --e--> V2() into table R\n"
      "select top 5 id, count(*) as n from table R group by id order by n "
      "desc");
  ASSERT_TRUE(script.is_ok());
  const auto bytes = encode_script(script.value());

  Xoshiro256 rng(99);
  for (int round = 0; round < 2000; ++round) {
    auto mutated = bytes;
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<std::uint8_t>(rng.below(256));
    }
    // Decode must return ok or a clean error — UB/crash is the failure.
    auto decoded = decode_script(mutated);
    if (decoded.is_ok()) {
      // If it happens to decode, printing must work too.
      (void)to_string(decoded.value());
    }
  }
}

TEST(IrFuzzTest, TruncationSweepFailsCleanly) {
  auto script = parse_script(
      "select * from graph A() ( --[]--> [ ] )+ --e(x = 1)--> B() into "
      "subgraph g");
  ASSERT_TRUE(script.is_ok());
  const auto bytes = encode_script(script.value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_script(truncated).is_ok()) << "cut at " << cut;
  }
}

// ---- Expression depth limit ------------------------------------------------------

// Every later pass recurses on expression trees, so both the parser and the
// IR decoder stop at relational::kMaxExprDepth with a typed parse error
// instead of exhausting the stack on ~10^5 levels.
constexpr std::size_t kHostileDepth = 100000;
constexpr std::size_t kMaxDepth = relational::kMaxExprDepth;

std::string repeat(const std::string& s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

Status parse_where(const std::string& expr) {
  return parse_script("select id from table T where " + expr).status();
}

void expect_too_deep(const Status& s) {
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.to_string();
  EXPECT_NE(s.message().find("nested deeper than"), std::string::npos)
      << s.to_string();
}

TEST(ExprDepthTest, ParserRejectsDeepNotChains) {
  expect_too_deep(parse_where(repeat("not ", kHostileDepth) + "true"));
  // A tree of exactly kMaxExprDepth levels (the nots plus the leaf) parses.
  EXPECT_TRUE(parse_where(repeat("not ", kMaxDepth - 1) + "true").is_ok());
  expect_too_deep(parse_where(repeat("not ", kMaxDepth) + "true"));
}

TEST(ExprDepthTest, ParserRejectsDeepParentheses) {
  expect_too_deep(parse_where(repeat("(", kHostileDepth) + "a" +
                              repeat(")", kHostileDepth)));
  EXPECT_TRUE(parse_where(repeat("(", kMaxDepth) + "a" +
                          repeat(")", kMaxDepth))
                  .is_ok());
  expect_too_deep(parse_where(repeat("(", kMaxDepth + 1) + "a" +
                              repeat(")", kMaxDepth + 1)));
  // Right-nested operators need the parentheses: a + (a + (a + ...)).
  expect_too_deep(parse_where(repeat("a + (", kHostileDepth) + "a" +
                              repeat(")", kHostileDepth)));
}

TEST(ExprDepthTest, ParserRejectsLongOperatorChains) {
  // Left-deep chains grow the tree in a loop, without recursing.
  expect_too_deep(parse_where("a" + repeat(" + a", kHostileDepth)));
  expect_too_deep(parse_where("a" + repeat(" and a", kHostileDepth)));
  EXPECT_TRUE(parse_where("a" + repeat(" + a", kMaxDepth - 1)).is_ok());
  expect_too_deep(parse_where("a" + repeat(" + a", kMaxDepth)));
}

/// IR blobs spliced around the encoding of a `where` clause, so a hostile
/// tree never exists in memory: `prefix` + expression bytes + `suffix`.
struct WhereIr {
  std::vector<std::uint8_t> prefix;
  std::vector<std::uint8_t> leaf;  // encoding of the literal `true`
  std::vector<std::uint8_t> not_op;  // unary node header
  std::vector<std::uint8_t> add_op;  // binary node header
  std::vector<std::uint8_t> suffix;

  static WhereIr make() {
    auto parsed = parse_script("select id from table T where true");
    GEMS_CHECK(parsed.is_ok());
    const relational::ExprPtr leaf =
        relational::Expr::make_literal(storage::Value::boolean(true));
    auto encode_with = [&](relational::ExprPtr where) {
      Script script = parsed.value();
      std::get<TableQueryStmt>(script.statements[0]).where = std::move(where);
      return encode_script(script);
    };
    const auto plain = encode_with(leaf);
    const auto negated =
        encode_with(relational::Expr::make_unary(relational::UnaryOp::kNot,
                                                 leaf));
    const auto added = encode_with(relational::Expr::make_binary(
        relational::BinaryOp::kAdd, leaf, leaf));
    std::size_t at = 0;
    while (plain[at] == negated[at]) ++at;
    const std::size_t header = negated.size() - plain.size();
    const std::size_t leaf_bytes = added.size() - plain.size() - header;
    WhereIr ir;
    ir.prefix.assign(plain.begin(), plain.begin() + at);
    ir.not_op.assign(negated.begin() + at, negated.begin() + at + header);
    ir.add_op.assign(added.begin() + at, added.begin() + at + header);
    ir.leaf.assign(plain.begin() + at, plain.begin() + at + leaf_bytes);
    ir.suffix.assign(plain.begin() + at + leaf_bytes, plain.end());
    return ir;
  }

  Status decode(const std::vector<std::vector<std::uint8_t>>& parts) const {
    std::vector<std::uint8_t> bytes = prefix;
    for (const auto& p : parts) bytes.insert(bytes.end(), p.begin(), p.end());
    bytes.insert(bytes.end(), suffix.begin(), suffix.end());
    return decode_script(bytes).status();
  }
};

std::vector<std::uint8_t> repeat(const std::vector<std::uint8_t>& b,
                                 std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(b.size() * n);
  for (std::size_t i = 0; i < n; ++i) out.insert(out.end(), b.begin(), b.end());
  return out;
}

TEST(ExprDepthTest, DecoderRejectsDeepNotChains) {
  const WhereIr ir = WhereIr::make();
  ASSERT_TRUE(ir.decode({ir.leaf}).is_ok());
  expect_too_deep(ir.decode({repeat(ir.not_op, kHostileDepth), ir.leaf}));
  EXPECT_TRUE(ir.decode({repeat(ir.not_op, kMaxDepth - 1), ir.leaf}).is_ok());
  expect_too_deep(ir.decode({repeat(ir.not_op, kMaxDepth), ir.leaf}));
}

TEST(ExprDepthTest, DecoderRejectsRightNestedOperators) {
  // The IR of a + (a + (a + ...)): parentheses leave no node of their own.
  const WhereIr ir = WhereIr::make();
  std::vector<std::uint8_t> step = ir.add_op;
  step.insert(step.end(), ir.leaf.begin(), ir.leaf.end());
  expect_too_deep(ir.decode({repeat(step, kHostileDepth), ir.leaf}));
  EXPECT_TRUE(ir.decode({repeat(step, kMaxDepth - 1), ir.leaf}).is_ok());
  expect_too_deep(ir.decode({repeat(step, kMaxDepth), ir.leaf}));
}

TEST(ExprDepthTest, DecoderRejectsLongOperatorChains) {
  // The IR of a + a + ... + a: every node header first, then the leaves.
  const WhereIr ir = WhereIr::make();
  expect_too_deep(ir.decode({repeat(ir.add_op, kHostileDepth),
                             repeat(ir.leaf, kHostileDepth + 1)}));
  EXPECT_TRUE(ir.decode({repeat(ir.add_op, kMaxDepth - 1),
                         repeat(ir.leaf, kMaxDepth)})
                  .is_ok());
  expect_too_deep(ir.decode({repeat(ir.add_op, kMaxDepth),
                             repeat(ir.leaf, kMaxDepth + 1)}));
}

// ---- CSV hostility ---------------------------------------------------------------

TEST(CsvFuzzTest, RandomCsvNeverCorruptsTables) {
  StringPool pool;
  Xoshiro256 rng(7);
  storage::Table table(
      "T",
      storage::Schema({{"a", storage::DataType::varchar(8)},
                       {"b", storage::DataType::int64()},
                       {"c", storage::DataType::date()}}),
      pool);
  const char bytes_pool[] = ",\"\n\r'ab1-x\\0";
  for (int round = 0; round < 500; ++round) {
    std::string csv;
    const std::size_t len = rng.below(80);
    for (std::size_t i = 0; i < len; ++i) {
      csv.push_back(bytes_pool[rng.below(sizeof(bytes_pool) - 1)]);
    }
    const std::size_t before = table.num_rows();
    auto r = storage::ingest_csv_text(table, csv);
    if (!r.is_ok()) {
      // Atomicity: failures leave the table untouched.
      EXPECT_EQ(table.num_rows(), before);
    }
  }
  // The table is still internally consistent: every row readable.
  for (storage::RowIndex r = 0; r < table.num_rows(); ++r) {
    for (storage::ColumnIndex c = 0; c < table.num_columns(); ++c) {
      (void)table.value_at(r, c);
    }
  }
}

}  // namespace
}  // namespace gems::graql
