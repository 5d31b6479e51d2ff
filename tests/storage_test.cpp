// Unit tests for src/storage: data types, dates, values, schemas, columns,
// tables and the table catalog, including the chunked column layout: clones
// share sealed chunks, appends to a clone never reach the source, and row-
// and batch-built tables encode to the same snapshot bytes. The bulk
// TableAppender gives the bytes and string ids that row appends give.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "storage/catalog.hpp"
#include "storage/schema.hpp"
#include "storage/table.hpp"
#include "storage/type.hpp"
#include "storage/value.hpp"
#include "store/snapshot.hpp"

namespace gems::storage {
namespace {

// ---- DataType parsing ------------------------------------------------------

TEST(TypeTest, ParseBasicTypes) {
  EXPECT_EQ(parse_data_type("integer").value(), DataType::int64());
  EXPECT_EQ(parse_data_type("bigint").value(), DataType::int64());
  EXPECT_EQ(parse_data_type("float").value(), DataType::float64());
  EXPECT_EQ(parse_data_type("double").value(), DataType::float64());
  EXPECT_EQ(parse_data_type("date").value(), DataType::date());
  EXPECT_EQ(parse_data_type("boolean").value(), DataType::boolean());
  EXPECT_EQ(parse_data_type("varchar(10)").value(), DataType::varchar(10));
  EXPECT_EQ(parse_data_type("VARCHAR(255)").value(), DataType::varchar(255));
}

TEST(TypeTest, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_data_type("intger").is_ok());
  EXPECT_FALSE(parse_data_type("varchar(0)").is_ok());
  EXPECT_FALSE(parse_data_type("varchar(x)").is_ok());
  EXPECT_FALSE(parse_data_type("varchar(10").is_ok());
}

TEST(TypeTest, Comparability) {
  EXPECT_TRUE(DataType::int64().comparable_with(DataType::float64()));
  EXPECT_TRUE(DataType::varchar(5).comparable_with(DataType::varchar(99)));
  // The paper's example: comparing a date to a floating-point number.
  EXPECT_FALSE(DataType::date().comparable_with(DataType::float64()));
  EXPECT_FALSE(DataType::date().comparable_with(DataType::int64()));
  EXPECT_FALSE(DataType::varchar(5).comparable_with(DataType::int64()));
}

TEST(TypeTest, ToString) {
  EXPECT_EQ(DataType::varchar(10).to_string(), "varchar(10)");
  EXPECT_EQ(DataType::int64().to_string(), "integer");
  EXPECT_EQ(DataType::date().to_string(), "date");
}

// ---- Dates ---------------------------------------------------------------

TEST(DateTest, EpochIsZero) { EXPECT_EQ(civil_to_days(1970, 1, 1), 0); }

TEST(DateTest, KnownDates) {
  EXPECT_EQ(civil_to_days(1970, 1, 2), 1);
  EXPECT_EQ(civil_to_days(1969, 12, 31), -1);
  EXPECT_EQ(civil_to_days(2000, 3, 1), 11017);
}

TEST(DateTest, RoundTripAcrossRange) {
  // Every 13 days over ~80 years, plus leap-year edges.
  for (std::int64_t d = -15000; d < 25000; d += 13) {
    std::int64_t y;
    unsigned m, dd;
    days_to_civil(d, y, m, dd);
    EXPECT_EQ(civil_to_days(static_cast<int>(y), m, dd), d);
  }
}

TEST(DateTest, RendersEveryInt64DayNumber) {
  // A WAL record or a decoded reply can carry any int64 in a date cell;
  // rendering it must stay defined (UBSan watches the arithmetic).
  EXPECT_EQ(format_date(std::numeric_limits<std::int64_t>::max()),
            "25252734927768524-07-27");
  EXPECT_EQ(format_date(std::numeric_limits<std::int64_t>::min()),
            "-25252734927764585-06-07");
  EXPECT_EQ(format_date(-719469), "0000-02-29");
  EXPECT_EQ(format_date(-719468), "0000-03-01");
  EXPECT_EQ(format_date(-719834), "-001-03-01");
}

TEST(DateTest, ParseAndFormat) {
  EXPECT_EQ(parse_date("2008-06-20").value(),
            civil_to_days(2008, 6, 20));
  EXPECT_EQ(format_date(parse_date("2008-06-20").value()), "2008-06-20");
  EXPECT_EQ(format_date(0), "1970-01-01");
}

TEST(DateTest, ParseValidatesCalendar) {
  EXPECT_FALSE(parse_date("2008-13-01").is_ok());
  EXPECT_FALSE(parse_date("2008-02-30").is_ok());
  EXPECT_TRUE(parse_date("2008-02-29").is_ok());   // leap year
  EXPECT_FALSE(parse_date("1900-02-29").is_ok());  // not a leap year
  EXPECT_TRUE(parse_date("2000-02-29").is_ok());   // 400-year rule
  EXPECT_FALSE(parse_date("2008/06/20").is_ok());
  EXPECT_FALSE(parse_date("20080620").is_ok());
  EXPECT_FALSE(parse_date("2008-6-20").is_ok());
}

// ---- Value ------------------------------------------------------------------

TEST(ValueTest, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.to_string(), "");
  EXPECT_TRUE(Value::null() == Value::null());
  EXPECT_FALSE(Value::null() == Value::int64(0));
}

TEST(ValueTest, NumericPromotionEquality) {
  EXPECT_TRUE(Value::int64(3) == Value::float64(3.0));
  EXPECT_FALSE(Value::int64(3) == Value::float64(3.5));
  // Hash consistency with promoted equality.
  EXPECT_EQ(Value::int64(3).hash(), Value::float64(3.0).hash());
}

TEST(ValueTest, DateIsNotAnInteger) {
  EXPECT_FALSE(Value::date(100) == Value::int64(100));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::null().compare(Value::int64(-5)), 0);  // nulls first
  EXPECT_EQ(Value::null().compare(Value::null()), 0);
  EXPECT_LT(Value::int64(1).compare(Value::int64(2)), 0);
  EXPECT_GT(Value::varchar("b").compare(Value::varchar("a")), 0);
  EXPECT_LT(Value::date(1).compare(Value::date(2)), 0);
  EXPECT_EQ(Value::float64(2.0).compare(Value::int64(2)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::int64(-7).to_string(), "-7");
  EXPECT_EQ(Value::boolean(true).to_string(), "true");
  EXPECT_EQ(Value::varchar("xy").to_string(), "xy");
  EXPECT_EQ(Value::date(0).to_string(), "1970-01-01");
}

// ---- Schema ------------------------------------------------------------------

TEST(SchemaTest, FindByName) {
  Schema s({{"id", DataType::varchar(10)}, {"price", DataType::float64()}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.find("price"), ColumnIndex{1});
  EXPECT_EQ(s.find("missing"), std::nullopt);
  // Case sensitive.
  EXPECT_EQ(s.find("Price"), std::nullopt);
}

TEST(SchemaTest, CreateRejectsDuplicates) {
  EXPECT_FALSE(Schema::create({{"id", DataType::int64()},
                               {"id", DataType::int64()}})
                   .is_ok());
}

// ---- Table -------------------------------------------------------------------

class TableTest : public ::testing::Test {
 protected:
  StringPool pool_;
  Schema schema_{{{"id", DataType::varchar(10)},
                  {"price", DataType::float64()},
                  {"qty", DataType::int64()},
                  {"when", DataType::date()}}};
};

TEST_F(TableTest, AppendAndRead) {
  Table t("Offers", schema_, pool_);
  ASSERT_TRUE(t.append_row(std::vector<Value>{
                                Value::varchar("o1"), Value::float64(9.5),
                                Value::int64(3), Value::date(100)})
                  .is_ok());
  ASSERT_TRUE(t.append_row(std::vector<Value>{Value::varchar("o2"),
                                              Value::null(), Value::int64(1),
                                              Value::null()})
                  .is_ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.value_at(0, 0).as_string(), "o1");
  EXPECT_EQ(t.value_at(0, 1).as_double(), 9.5);
  EXPECT_TRUE(t.value_at(1, 1).is_null());
  EXPECT_EQ(t.value_at(1, 2).as_int64(), 1);
}

TEST_F(TableTest, AppendValidatesArity) {
  Table t("T", schema_, pool_);
  EXPECT_FALSE(t.append_row(std::vector<Value>{Value::int64(1)}).is_ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(TableTest, AppendValidatesKinds) {
  Table t("T", schema_, pool_);
  // Integer into a varchar column.
  const auto s = t.append_row(std::vector<Value>{
      Value::int64(1), Value::float64(1), Value::int64(1), Value::date(1)});
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(TableTest, IntPromotesIntoFloatColumn) {
  Table t("T", schema_, pool_);
  ASSERT_TRUE(t.append_row(std::vector<Value>{Value::varchar("a"),
                                              Value::int64(7), Value::int64(1),
                                              Value::date(0)})
                  .is_ok());
  EXPECT_EQ(t.value_at(0, 1).as_double(), 7.0);
}

TEST_F(TableTest, VarcharLengthEnforced) {
  Table t("T", schema_, pool_);
  const auto s = t.append_row(std::vector<Value>{
      Value::varchar("this-is-far-too-long"), Value::float64(1),
      Value::int64(1), Value::date(1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, SharedPoolInternsAcrossTables) {
  Table a("A", Schema({{"s", DataType::varchar(10)}}), pool_);
  Table b("B", Schema({{"s", DataType::varchar(10)}}), pool_);
  ASSERT_TRUE(a.append_row(std::vector<Value>{Value::varchar("x")}).is_ok());
  ASSERT_TRUE(b.append_row(std::vector<Value>{Value::varchar("x")}).is_ok());
  EXPECT_EQ(a.column(0).string_at(0), b.column(0).string_at(0));
}

TEST_F(TableTest, ByteSizeGrows) {
  Table t("T", schema_, pool_);
  const auto empty = t.byte_size();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.append_row(std::vector<Value>{
                                  Value::varchar("r"), Value::float64(i),
                                  Value::int64(i), Value::date(i)})
                    .is_ok());
  }
  EXPECT_GT(t.byte_size(), empty);
}

// ---- Catalog -------------------------------------------------------------

TEST(CatalogTest, AddAndFind) {
  StringPool pool;
  TableCatalog catalog;
  auto t = std::make_shared<Table>("Products",
                                   Schema({{"id", DataType::varchar(10)}}),
                                   pool);
  ASSERT_TRUE(catalog.add(t).is_ok());
  EXPECT_TRUE(catalog.contains("Products"));
  EXPECT_EQ(catalog.find("Products").value().get(), t.get());
  EXPECT_FALSE(catalog.find("Nope").is_ok());
  // Duplicate registration fails.
  EXPECT_EQ(catalog.add(t).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.names(), std::vector<std::string>{"Products"});
}

TEST(CatalogTest, AddOrReplace) {
  StringPool pool;
  TableCatalog catalog;
  auto a = std::make_shared<Table>("T", Schema({{"x", DataType::int64()}}),
                                   pool);
  auto b = std::make_shared<Table>("T", Schema({{"y", DataType::int64()}}),
                                   pool);
  ASSERT_TRUE(catalog.add(a).is_ok());
  catalog.add_or_replace(b);
  EXPECT_EQ(catalog.find("T").value().get(), b.get());
  EXPECT_EQ(catalog.size(), 1u);
}


// ---- Chunked columns -------------------------------------------------------

/// One column of every storage kind. Row r holds values derived from r
/// alone, with NULLs on a fixed pattern, so any reader can check any row.
class ChunkedTableTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSizes[] = {0, 1, 1023, 1024, 1025, 2049};

  ChunkedTableTest() {
    for (int i = 0; i < 7; ++i) {
      ids_.push_back(pool_.intern("s" + std::to_string(i)));
    }
  }

  Schema schema() const {
    return Schema({{"b", DataType::boolean()},
                   {"i", DataType::int64()},
                   {"x", DataType::float64()},
                   {"s", DataType::varchar(4)},
                   {"d", DataType::date()}});
  }

  static bool null_at(std::size_t r, std::size_t c) {
    return (r * 7 + c * 3) % 11 == 0;
  }

  std::vector<Value> row(std::size_t r) const {
    std::vector<Value> v{
        Value::boolean(r % 3 == 0),
        Value::int64(static_cast<std::int64_t>(r) * 3 - 50),
        Value::float64(static_cast<double>(r) * 0.5 - 7.25),
        Value::varchar("s" + std::to_string(r % 7)),
        Value::date(static_cast<std::int64_t>(r % 400))};
    for (std::size_t c = 0; c < v.size(); ++c) {
      if (null_at(r, c)) v[c] = Value::null();
    }
    return v;
  }

  TablePtr rows_table(std::size_t n) {
    auto t = std::make_shared<Table>("T", schema(), pool_);
    append_rows(*t, n);
    return t;
  }

  void append_rows(Table& t, std::size_t n) const {
    const std::size_t first = t.num_rows();
    for (std::size_t r = first; r < first + n; ++r) {
      t.append_row_unchecked(row(r));
    }
  }

  /// The same rows appended through the vectorized writers, `batch` lanes
  /// at a time.
  TablePtr batch_table(std::size_t n, std::size_t batch) {
    auto t = std::make_shared<Table>("T", schema(), pool_);
    for (std::size_t base = 0; base < n; base += batch) {
      const std::size_t k = std::min(batch, n - base);
      std::vector<std::uint64_t> valid((k + 63) / 64), bits((k + 63) / 64);
      std::vector<std::int64_t> ints(k);
      std::vector<double> doubles(k);
      std::vector<StringId> strs(k);
      for (std::size_t c = 0; c < 5; ++c) {
        std::fill(valid.begin(), valid.end(), 0);
        std::fill(bits.begin(), bits.end(), 0);
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t r = base + i;
          const bool ok = !null_at(r, c);
          if (ok) valid[i / 64] |= 1ull << (i % 64);
          const Value v = row(r)[c];
          switch (c) {
            case 0:
              if (ok && v.as_bool()) bits[i / 64] |= 1ull << (i % 64);
              break;
            case 1:
            case 4:
              ints[i] = ok ? v.as_int64() : 12345;  // masked under NULL
              break;
            case 2:
              doubles[i] = ok ? v.as_double() : 99.0;
              break;
            case 3:
              strs[i] = ok ? ids_[r % 7] : 5;
              break;
          }
        }
        Column& col = t->column_mut(static_cast<ColumnIndex>(c));
        switch (c) {
          case 0:
            col.append_bool_bits(bits.data(), valid.data(), k);
            break;
          case 1:
          case 4:
            col.append_lanes_int64(ints.data(), valid.data(), k);
            break;
          case 2:
            col.append_lanes_double(doubles.data(), valid.data(), k);
            break;
          case 3:
            col.append_lanes_string(strs.data(), valid.data(), k);
            break;
        }
      }
      t->bump_rows(k);
    }
    return t;
  }

  std::vector<std::uint8_t> snapshot_of(const TablePtr& t) {
    exec::ExecContext ctx;
    ctx.pool = &pool_;
    EXPECT_TRUE(ctx.tables.add(t).is_ok());
    return store::encode_snapshot(ctx, 0);
  }

  void expect_rows(const Table& t, std::size_t n) const {
    ASSERT_EQ(t.num_rows(), n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<Value> want = row(r);
      for (std::size_t c = 0; c < want.size(); ++c) {
        const Value got =
            t.value_at(static_cast<RowIndex>(r), static_cast<ColumnIndex>(c));
        ASSERT_TRUE(got == want[c]) << "row " << r << " col " << c << ": "
                                    << got.to_string() << " != "
                                    << want[c].to_string();
      }
    }
  }

  /// Data pointers of every sealed chunk (values and their validity words
  /// share one allocation).
  static std::vector<const void*> sealed_chunks(const Table& t) {
    std::vector<const void*> out;
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(static_cast<ColumnIndex>(c));
      auto add = [&](const auto& chunks) {
        for (std::size_t k = 0; k < chunks.num_sealed_chunks(); ++k) {
          out.push_back(chunks.chunk(k).data());
          out.push_back(chunks.valid_words(k).data());
        }
      };
      switch (col.type().kind) {
        case TypeKind::kDouble:
          add(col.double_chunks());
          break;
        case TypeKind::kVarchar:
          add(col.string_chunks());
          break;
        default:
          add(col.int_chunks());
          break;
      }
    }
    return out;
  }

  StringPool pool_;
  std::vector<StringId> ids_;
};

TEST_F(ChunkedTableTest, CloneSharesEverySealedChunk) {
  for (const std::size_t n : kSizes) {
    const TablePtr source = rows_table(n);
    const Table clone(*source);
    const std::vector<const void*> sealed = sealed_chunks(*source);
    EXPECT_EQ(sealed_chunks(clone), sealed) << n << " rows";
    // A full chunk is sealed when the next row arrives: a table holds
    // (n - 1) / 1024 sealed chunks per array.
    EXPECT_EQ(sealed.size(), n == 0 ? 0 : 2 * 5 * ((n - 1) / kChunkRows))
        << n << " rows";
    expect_rows(clone, n);
  }
}

TEST_F(ChunkedTableTest, AppendToCloneLeavesSourceUnchanged) {
  for (const std::size_t n : kSizes) {
    const TablePtr source = rows_table(n);
    const std::vector<std::uint8_t> before = snapshot_of(source);
    const std::vector<const void*> sealed = sealed_chunks(*source);
    auto clone = std::make_shared<Table>(*source);
    // 100 rows, then enough to seal the tail and two more chunks.
    append_rows(*clone, 100);
    append_rows(*clone, 2 * kChunkRows + 5);
    expect_rows(*source, n);
    EXPECT_EQ(snapshot_of(source), before) << n << " rows";
    EXPECT_EQ(sealed_chunks(*source), sealed) << n << " rows";
    // The clone still shares the source's sealed chunks, in order.
    const std::vector<const void*> grown = sealed_chunks(*clone);
    for (const void* p : sealed) {
      EXPECT_NE(std::find(grown.begin(), grown.end(), p), grown.end());
    }
    expect_rows(*clone, n + 2 * kChunkRows + 105);
    // And encodes exactly like a table built in one go.
    EXPECT_EQ(snapshot_of(clone), snapshot_of(rows_table(clone->num_rows())))
        << n << " rows";
  }
}

TEST_F(ChunkedTableTest, RowAndBatchBuiltTablesEncodeIdentically) {
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint8_t> by_row = snapshot_of(rows_table(n));
    // Batch widths that start windows at every word offset and straddle
    // chunk seals.
    for (const std::size_t batch : {1ul, 7ul, 100ul, 1000ul, 1024ul}) {
      const TablePtr t = batch_table(n, batch);
      expect_rows(*t, n);
      EXPECT_EQ(snapshot_of(t), by_row) << n << " rows, batch " << batch;
    }
  }
}

// Readers scan whichever table is published while a writer clones it and
// appends 100-row batches across chunk seals, as MVCC ingest does. Under
// TSan this proves that a sealed chunk, shared between the published table
// and the writer's clone, is never written.
TEST_F(ChunkedTableTest, ReadersScanPinnedTableWhileWriterClonesAndAppends) {
  std::mutex mu;
  std::shared_ptr<const Table> published = rows_table(1000);
  std::atomic<bool> done{false};
  std::atomic<int> scans{0};
  auto reader = [&] {
    while (!done.load()) {
      std::shared_ptr<const Table> pinned;
      {
        const std::lock_guard<std::mutex> lock(mu);
        pinned = published;
      }
      const Table& t = *pinned;
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        const RowIndex row = static_cast<RowIndex>(r);
        const Column& i = t.column(1);
        const Column& s = t.column(3);
        if (!null_at(r, 1)) {
          ASSERT_EQ(i.int64_at(row), static_cast<std::int64_t>(r) * 3 - 50);
        }
        if (!null_at(r, 3)) {
          ASSERT_EQ(s.string_at(row), ids_[r % 7]);
        }
        ASSERT_EQ(i.is_null(row), null_at(r, 1));
      }
      // Chunk-wise, as the vectorized scans and the encoder read.
      const auto& x = t.column(2).double_chunks();
      for (std::size_t c = 0; c < x.num_chunks(); ++c) {
        const auto chunk = x.chunk(c);
        for (std::size_t k = 0; k < chunk.size(); ++k) {
          const std::size_t r = c * kChunkRows + k;
          if (!null_at(r, 2)) {
            ASSERT_EQ(chunk[k], static_cast<double>(r) * 0.5 - 7.25);
          }
        }
      }
      scans.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (int batch = 0; batch < 40; ++batch) {
    std::shared_ptr<const Table> base;
    {
      const std::lock_guard<std::mutex> lock(mu);
      base = published;
    }
    auto next = std::make_shared<Table>(*base);
    append_rows(*next, 100);
    const std::lock_guard<std::mutex> lock(mu);
    published = std::move(next);
  }
  // Let every reader finish at least one scan of the last table.
  const int seen = scans.load();
  while (scans.load() < seen + 3) std::this_thread::yield();
  done.store(true);
  for (auto& t : readers) t.join();
  expect_rows(*published, 5000);
}

// ---- TableAppender ----------------------------------------------------------

/// Rows over every type with two varchar columns drawing on one key space,
/// so the order in which a row's strings are interned decides their ids,
/// and NULLs at a density of 0, 1/2 or 1.
class TableAppenderTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSizes[] = {0, 1, 1023, 1024, 1025, 3000};
  enum Density { kNoNulls, kHalfNulls, kAllNulls };
  static constexpr Density kDensities[] = {kNoNulls, kHalfNulls, kAllNulls};
  static constexpr ColumnIndex kColumnOrder[] = {0, 1, 2, 3, 4, 5};
  static constexpr std::size_t kOneCommit = ~std::size_t{0};

  static Schema schema() {
    return Schema({{"b", DataType::boolean()},
                   {"s", DataType::varchar(6)},
                   {"i", DataType::int64()},
                   {"x", DataType::float64()},
                   {"t", DataType::varchar(6)},
                   {"d", DataType::date()}});
  }

  static bool null_at(std::size_t r, std::size_t c, Density density) {
    if (density != kHalfNulls) return density == kAllNulls;
    return ((r * 0x9E3779B97F4A7C15ull + c * 0xC2B2AE3D27D4EB4Full) >> 63) !=
           0;
  }

  static Value cell(std::size_t r, std::size_t c, Density density) {
    if (null_at(r, c, density)) return Value::null();
    switch (c) {
      case 0:
        return Value::boolean(r % 3 == 1);
      case 1:
        return Value::varchar("k" + std::to_string(r * 7 % 601));
      case 2:
        return Value::int64(static_cast<std::int64_t>(r) * 5 - 700);
      case 3:
        return Value::float64(static_cast<double>(r) * 0.25 - 3.5);
      case 4:
        return Value::varchar("k" + std::to_string((r * 13 + 5) % 997));
      default:
        return Value::date(static_cast<std::int64_t>(r % 500) - 100);
    }
  }

  /// Snapshot bytes of a one-table database: the pool's strings in id
  /// order, then each column's payload and validity words.
  static std::vector<std::uint8_t> snapshot_of(StringPool& pool,
                                               const TablePtr& t) {
    exec::ExecContext ctx;
    ctx.pool = &pool;
    EXPECT_TRUE(ctx.tables.add(t).is_ok());
    return store::encode_snapshot(ctx, 0);
  }

  static void append_rows(Table& t, std::size_t first, std::size_t n,
                          Density density) {
    for (std::size_t r = first; r < first + n; ++r) {
      std::vector<Value> row;
      for (std::size_t c = 0; c < 6; ++c) row.push_back(cell(r, c, density));
      t.append_row_unchecked(row);
    }
  }

  /// The reference: append_row_unchecked row by row, on a fresh pool.
  static std::vector<std::uint8_t> by_rows(std::size_t n, Density density) {
    StringPool pool;
    auto t = std::make_shared<Table>("T", schema(), pool);
    append_rows(*t, 0, n, density);
    return snapshot_of(pool, t);
  }

  /// Stages row r's cell of column c through the typed setter.
  static void put_typed(TableAppender& out, std::size_t r, ColumnIndex c,
                        Density density) {
    const Value v = cell(r, c, density);
    if (v.is_null()) {
      out.put_null(c);
      return;
    }
    switch (c) {
      case 0:
        out.put_bool(c, v.as_bool());
        break;
      case 1:
      case 4:
        out.put_string(c, v.as_string());
        break;
      case 3:
        out.put_double(c, v.as_double());
        break;
      default:
        out.put_int64(c, v.as_int64());
        break;
    }
  }

  /// The rows staged with their cells in `order`, committed every
  /// `stride` rows and at the end, on a fresh pool.
  static std::vector<std::uint8_t> by_appender(
      std::size_t n, Density density, std::span<const ColumnIndex> order,
      std::size_t stride) {
    StringPool pool;
    auto t = std::make_shared<Table>("T", schema(), pool);
    TableAppender out(*t);
    for (std::size_t r = 0; r < n; ++r) {
      for (const ColumnIndex c : order) put_typed(out, r, c, density);
      out.end_row();
      if (out.staged_rows() == stride) out.commit();
    }
    out.commit();
    EXPECT_EQ(t->num_rows(), n);
    return snapshot_of(pool, t);
  }
};

TEST_F(TableAppenderTest, MatchesRowAppendForEveryTypeDensityAndSize) {
  for (const std::size_t n : kSizes) {
    for (const Density density : kDensities) {
      const std::vector<std::uint8_t> want = by_rows(n, density);
      for (const std::size_t stride : {kOneCommit, kChunkRows, 1000ul}) {
        EXPECT_EQ(by_appender(n, density, kColumnOrder, stride), want)
            << n << " rows, density " << density << ", stride " << stride;
      }
    }
  }
}

TEST_F(TableAppenderTest, ReorderedCellsInternInColumnOrder) {
  // Column t's cell arrives before column s's, as a CSV header may order
  // them; the ids must still follow (row, column index) order.
  constexpr ColumnIndex kReordered[] = {4, 5, 3, 1, 0, 2};
  for (const std::size_t n : kSizes) {
    for (const Density density : kDensities) {
      EXPECT_EQ(by_appender(n, density, kReordered, kOneCommit),
                by_rows(n, density))
          << n << " rows, density " << density;
    }
  }
  StringPool pool;
  Table t("T", schema(), pool);
  TableAppender out(t);
  for (const ColumnIndex c : kReordered) put_typed(out, 0, c, kNoNulls);
  out.end_row();
  out.commit();
  EXPECT_EQ(pool.view(0), "k0");  // column s of row 0
  EXPECT_EQ(pool.view(1), "k5");  // column t of row 0
}

TEST_F(TableAppenderTest, PutValueAndAddRowMatchRowAppend) {
  const Schema small({{"s", DataType::varchar(4)},
                      {"i", DataType::int64()},
                      {"x", DataType::float64()}});
  const std::vector<std::vector<Value>> rows = {
      {Value::varchar("a"), Value::int64(1), Value::float64(2.5)},
      {Value::varchar("b"), Value::null(), Value::int64(3)},  // promoted
      {Value::null(), Value::int64(-4), Value::null()},
      {Value::varchar("a"), Value::int64(5), Value::float64(-0.0)}};
  StringPool want_pool;
  auto want = std::make_shared<Table>("T", small, want_pool);
  for (const auto& row : rows) want->append_row_unchecked(row);

  StringPool boxed_pool;
  auto boxed = std::make_shared<Table>("T", small, boxed_pool);
  TableAppender boxed_out(*boxed);
  for (const auto& row : rows) {
    for (ColumnIndex c = 0; c < 3; ++c) boxed_out.put_value(c, row[c]);
    boxed_out.end_row();
  }
  boxed_out.commit();

  StringPool typed_pool;
  auto typed = std::make_shared<Table>("T", small, typed_pool);
  TableAppender typed_out(*typed);
  typed_out.add_row("a", std::int64_t{1}, 2.5);
  typed_out.add_row(std::string("b"), std::optional<std::int64_t>(), 3.0);
  typed_out.add_row(std::nullopt, std::int64_t{-4}, std::nullopt);
  typed_out.add_row(std::string_view("a"), std::optional<std::int64_t>(5),
                    -0.0);
  typed_out.commit();

  const std::vector<std::uint8_t> bytes = snapshot_of(want_pool, want);
  EXPECT_EQ(snapshot_of(boxed_pool, boxed), bytes);
  EXPECT_EQ(snapshot_of(typed_pool, typed), bytes);
}

TEST_F(TableAppenderTest, AppendsAfterRowsAlreadyInTheTable) {
  // 100 rows put the table off every word and chunk boundary first.
  for (const Density density : kDensities) {
    StringPool pool;
    auto t = std::make_shared<Table>("T", schema(), pool);
    append_rows(*t, 0, 100, density);
    TableAppender out(*t);
    for (std::size_t r = 100; r < 2100; ++r) {
      for (const ColumnIndex c : kColumnOrder) put_typed(out, r, c, density);
      out.end_row();
    }
    out.commit();
    EXPECT_EQ(snapshot_of(pool, t), by_rows(2100, density))
        << "density " << density;
  }
}

TEST_F(TableAppenderTest, UncommittedRowsLeaveTableAndPoolUnchanged) {
  StringPool pool;
  auto t = std::make_shared<Table>("T", schema(), pool);
  append_rows(*t, 0, 10, kNoNulls);
  const std::vector<std::uint8_t> before = snapshot_of(pool, t);
  const std::size_t strings = pool.size();
  {
    TableAppender out(*t);
    for (std::size_t r = 10; r < 3000; ++r) {
      for (const ColumnIndex c : kColumnOrder) put_typed(out, r, c, kNoNulls);
      out.end_row();
    }
    EXPECT_EQ(out.staged_rows(), 2990u);
  }
  TableAppender empty(*t);
  empty.commit();
  EXPECT_EQ(t->num_rows(), 10u);
  EXPECT_EQ(pool.size(), strings);
  EXPECT_EQ(snapshot_of(pool, t), before);
}

}  // namespace
}  // namespace gems::storage
