// Tests for CSV ingest/export (paper Sec. II-A2 data-ingest semantics):
// typed parsing, RFC 4180 quoting, atomicity (table and string pool),
// header handling and the string ids it gives, round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "storage/csv.hpp"

namespace gems::storage {
namespace {

Schema offers_schema() {
  return Schema({{"id", DataType::varchar(10)},
                 {"price", DataType::float64()},
                 {"deliveryDays", DataType::int64()},
                 {"validFrom", DataType::date()}});
}

class CsvTest : public ::testing::Test {
 protected:
  StringPool pool_;
};

TEST_F(CsvTest, BasicTypedIngest) {
  Table t("Offers", offers_schema(), pool_);
  auto stats = ingest_csv_text(t,
                               "o1,9.50,3,2008-06-20\n"
                               "o2,100,14,2009-01-02\n");
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats->rows, 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.value_at(0, 0).as_string(), "o1");
  EXPECT_DOUBLE_EQ(t.value_at(0, 1).as_double(), 9.5);
  EXPECT_EQ(t.value_at(1, 2).as_int64(), 14);
  EXPECT_EQ(t.value_at(1, 3).to_string(), "2009-01-02");
}

TEST_F(CsvTest, EmptyUnquotedFieldIsNull) {
  Table t("Offers", offers_schema(), pool_);
  ASSERT_TRUE(ingest_csv_text(t, "o1,,3,2008-06-20\n").is_ok());
  EXPECT_TRUE(t.value_at(0, 1).is_null());
}

TEST_F(CsvTest, EmptyQuotedFieldIsEmptyString) {
  Table t("T", Schema({{"s", DataType::varchar(10)}}), pool_);
  ASSERT_TRUE(ingest_csv_text(t, "\"\"\n").is_ok());
  EXPECT_FALSE(t.value_at(0, 0).is_null());
  EXPECT_EQ(t.value_at(0, 0).as_string(), "");
}

TEST_F(CsvTest, QuotedFieldsWithCommasNewlinesAndEscapes) {
  Table t("T", Schema({{"a", DataType::varchar(40)},
                       {"b", DataType::int64()}}),
          pool_);
  ASSERT_TRUE(
      ingest_csv_text(t, "\"hello, \"\"world\"\"\nsecond line\",7\n")
          .is_ok());
  EXPECT_EQ(t.value_at(0, 0).as_string(), "hello, \"world\"\nsecond line");
  EXPECT_EQ(t.value_at(0, 1).as_int64(), 7);
}

TEST_F(CsvTest, CrLfLineEndings) {
  Table t("Offers", offers_schema(), pool_);
  ASSERT_TRUE(
      ingest_csv_text(t, "o1,1.0,1,2008-01-01\r\no2,2.0,2,2008-01-02\r\n")
          .is_ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(CsvTest, MissingFinalNewline) {
  Table t("Offers", offers_schema(), pool_);
  ASSERT_TRUE(ingest_csv_text(t, "o1,1.0,1,2008-01-01").is_ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST_F(CsvTest, HeaderReordersColumns) {
  Table t("Offers", offers_schema(), pool_);
  CsvOptions opts;
  opts.has_header = true;
  ASSERT_TRUE(ingest_csv_text(t,
                              "price,id,validFrom,deliveryDays\n"
                              "5.5,o9,2010-10-10,2\n",
                              opts)
                  .is_ok());
  EXPECT_EQ(t.value_at(0, 0).as_string(), "o9");
  EXPECT_DOUBLE_EQ(t.value_at(0, 1).as_double(), 5.5);
  EXPECT_EQ(t.value_at(0, 2).as_int64(), 2);
}

TEST_F(CsvTest, HeaderRejectsUnknownAndDuplicateColumns) {
  Table t("Offers", offers_schema(), pool_);
  CsvOptions opts;
  opts.has_header = true;
  EXPECT_FALSE(
      ingest_csv_text(t, "price,id,validFrom,nosuch\n1,a,2010-01-01,2\n",
                      opts)
          .is_ok());
  EXPECT_FALSE(
      ingest_csv_text(t, "price,price,validFrom,deliveryDays\n", opts)
          .is_ok());
}

TEST_F(CsvTest, TypeErrorNamesLine) {
  Table t("Offers", offers_schema(), pool_);
  auto r = ingest_csv_text(t,
                           "o1,1.0,1,2008-01-01\n"
                           "o2,notanumber,1,2008-01-01\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().to_string();
}

TEST_F(CsvTest, IngestIsAtomicOnError) {
  Table t("Offers", offers_schema(), pool_);
  ASSERT_FALSE(ingest_csv_text(t,
                               "o1,1.0,1,2008-01-01\n"
                               "o2,bad,1,2008-01-01\n")
                   .is_ok());
  // Paper Sec. II-A2: ingest is atomic; the good first row must not stick.
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(CsvTest, FailedIngestLeavesPoolUnchanged) {
  Table t("Offers", offers_schema(), pool_);
  pool_.intern("o0");
  const std::size_t strings = pool_.size();
  // Two new strings convert before the bad field on line 3.
  auto r = ingest_csv_text(t,
                           "o1,1.0,1,2008-01-01\n"
                           "o2,2.0,2,2008-01-02\n"
                           "o3,3.0,x,2008-01-03\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().to_string();
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(pool_.size(), strings);
  EXPECT_EQ(pool_.find("o1"), kInvalidStringId);
}

TEST_F(CsvTest, HeaderReorderedFileGivesColumnOrderIds) {
  // Two varchar columns whose first strings differ: the header puts b
  // before a, but ids still follow (row, column) order.
  const Schema schema({{"a", DataType::varchar(8)},
                       {"n", DataType::int64()},
                       {"b", DataType::varchar(8)}});
  StringPool in_order_pool;
  Table in_order("T", schema, in_order_pool);
  ASSERT_TRUE(ingest_csv_text(in_order,
                              "x1,1,y1\n"
                              "y1,2,x2\n"
                              ",3,z3\n")
                  .is_ok());
  StringPool reordered_pool;
  Table reordered("T", schema, reordered_pool);
  CsvOptions opts;
  opts.has_header = true;
  ASSERT_TRUE(ingest_csv_text(reordered,
                              "b,n,a\n"
                              "y1,1,x1\n"
                              "x2,2,y1\n"
                              "z3,3,\n",
                              opts)
                  .is_ok());
  ASSERT_EQ(reordered.num_rows(), 3u);
  EXPECT_EQ(in_order_pool.view(0), "x1");
  for (const ColumnIndex c : {0, 2}) {
    for (RowIndex r = 0; r < 3; ++r) {
      const Column& want = in_order.column(c);
      const Column& got = reordered.column(c);
      EXPECT_EQ(got.is_null(r), want.is_null(r)) << r << "," << c;
      if (!want.is_null(r)) {
        EXPECT_EQ(got.string_at(r), want.string_at(r)) << r << "," << c;
      }
    }
  }
  std::vector<std::string> a, b;
  in_order_pool.for_each([&](StringId, std::string_view s) {
    a.emplace_back(s);
  });
  reordered_pool.for_each([&](StringId, std::string_view s) {
    b.emplace_back(s);
  });
  EXPECT_EQ(a, b);
}

TEST_F(CsvTest, ArityMismatchRejected) {
  Table t("Offers", offers_schema(), pool_);
  EXPECT_FALSE(ingest_csv_text(t, "o1,1.0,1\n").is_ok());
  EXPECT_FALSE(ingest_csv_text(t, "o1,1.0,1,2008-01-01,extra\n").is_ok());
}

TEST_F(CsvTest, UnterminatedQuoteRejected) {
  Table t("T", Schema({{"s", DataType::varchar(10)}}), pool_);
  EXPECT_FALSE(ingest_csv_text(t, "\"oops\n").is_ok());
}

TEST_F(CsvTest, VarcharOverflowRejected) {
  Table t("T", Schema({{"s", DataType::varchar(3)}}), pool_);
  EXPECT_FALSE(ingest_csv_text(t, "abcd\n").is_ok());
}

TEST_F(CsvTest, BooleanParsing) {
  Table t("T", Schema({{"b", DataType::boolean()}}), pool_);
  ASSERT_TRUE(ingest_csv_text(t, "true\nfalse\n1\n0\n").is_ok());
  EXPECT_TRUE(t.value_at(0, 0).as_bool());
  EXPECT_FALSE(t.value_at(1, 0).as_bool());
  EXPECT_TRUE(t.value_at(2, 0).as_bool());
  EXPECT_FALSE(ingest_csv_text(t, "maybe\n").is_ok());
}

TEST_F(CsvTest, WriteThenIngestRoundTrip) {
  Table t("Offers", offers_schema(), pool_);
  ASSERT_TRUE(ingest_csv_text(t,
                              "o1,9.50,3,2008-06-20\n"
                              "o2,,14,\n"
                              "\"we,ird\",1.5,0,1999-12-31\n")
                  .is_ok());
  std::ostringstream out;
  write_csv(t, out);

  Table back("Offers2", offers_schema(), pool_);
  CsvOptions opts;
  opts.has_header = true;
  ASSERT_TRUE(ingest_csv_text(back, out.str(), opts).is_ok());
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (RowIndex r = 0; r < t.num_rows(); ++r) {
    for (ColumnIndex c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(back.value_at(r, c) == t.value_at(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gems_csv_test.csv";
  Table t("Offers", offers_schema(), pool_);
  ASSERT_TRUE(ingest_csv_text(t, "o1,9.50,3,2008-06-20\n").is_ok());
  ASSERT_TRUE(write_csv_file(t, path).is_ok());

  Table back("B", offers_schema(), pool_);
  CsvOptions opts;
  opts.has_header = true;
  auto r = ingest_csv_file(back, path, opts);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(back.num_rows(), 1u);
  std::remove(path.c_str());
}

TEST_F(CsvTest, MissingFileIsIoError) {
  Table t("T", Schema({{"x", DataType::int64()}}), pool_);
  EXPECT_EQ(ingest_csv_file(t, "/nonexistent/nope.csv").status().code(),
            StatusCode::kIoError);
}

TEST_F(CsvTest, SplitCsvRecordHelper) {
  std::vector<bool> quoted;
  auto fields = split_csv_record("a,\"b,c\",", ',', &quoted);
  ASSERT_TRUE(fields.is_ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"a", "b,c", ""}));
  EXPECT_EQ(quoted, (std::vector<bool>{false, true, false}));
}

}  // namespace
}  // namespace gems::storage
