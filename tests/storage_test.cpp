// Unit tests for src/storage: data types, dates, values, schemas, columns,
// tables and the table catalog, including the chunked column layout: clones
// share sealed chunks, appends to a clone never reach the source, and row-
// and batch-built tables encode to the same snapshot bytes. Columns whose
// sealed chunks take every stored form (constant, 1/2/4-byte and full-width
// lanes, with and without NULLs) read back their plain lanes through every
// accessor. The bulk TableAppender gives the bytes and string ids that row
// appends give.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/prng.hpp"
#include "exec/executor.hpp"
#include "net/wire.hpp"
#include "relational/bound_expr.hpp"
#include "relational/operators.hpp"
#include "relational/row_key.hpp"
#include "relational_oracle.hpp"
#include "storage/catalog.hpp"
#include "storage/schema.hpp"
#include "storage/table.hpp"
#include "storage/type.hpp"
#include "storage/value.hpp"
#include "store/snapshot.hpp"
#include "wire_oracle.hpp"

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

  /// The allocation of every sealed chunk. A chunk's header, validity
  /// words and lanes share it; a chunk without a NULL has no validity
  /// words of its own.
  static std::vector<const void*> sealed_chunks(const Table& t) {
    std::vector<const void*> out;
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(static_cast<ColumnIndex>(c));
      auto add = [&](const auto& chunks) {
        for (std::size_t k = 0; k < chunks.num_sealed_chunks(); ++k) {
          out.push_back(chunks.chunk_address(k));
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
    // (n - 1) / 1024 sealed chunks per column.
    EXPECT_EQ(sealed.size(), n == 0 ? 0 : 5 * ((n - 1) / kChunkRows))
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
      x.for_each_piece(0, x.size(),
                       [&](std::span<const double> piece, std::size_t at) {
                         for (std::size_t k = 0; k < piece.size(); ++k) {
                           const std::size_t r = at + k;
                           if (!null_at(r, 2)) {
                             ASSERT_EQ(piece[k],
                                       static_cast<double>(r) * 0.5 - 7.25);
                           }
                         }
                       });
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

// ---- Column chunks ----------------------------------------------------------

/// Random columns of every storage kind whose sealed chunks take every
/// stored form, with a plain reference per column: the lanes every reader
/// must see (a NULL row holds its canonical payload) and the validity bits.
class ColumnChunkTest : public ::testing::Test {
 protected:
  /// The form of sealed chunk c is Form(c); the partial tail is kMixedNulls.
  enum Form {
    kConstant,
    kSpan1,
    kSpan2,
    kSpan4,
    kFullSpan,          // INT64_MIN..INT64_MAX: full width
    kNullOutsideSpan,   // 1-byte span far from the canonical payload
    kAllNull,
    kMixedNulls,
    kNumForms
  };
  static constexpr std::size_t kRows = kNumForms * kChunkRows + 333;
  static constexpr std::int64_t kBase = 1'000'000'000'000;
  static constexpr ColumnIndex kB = 0, kI = 1, kX = 2, kS = 3, kD = 4;

  ColumnChunkTest() {
    for (int i = 0; i < 70000; ++i) {
      ids_.push_back(pool_.intern("v" + std::to_string(i)));
    }
    SplitMix64 rng(2024);
    for (std::size_t r = 0; r < kRows; ++r) {
      const Form form = r / kChunkRows < kNumForms
                            ? static_cast<Form>(r / kChunkRows)
                            : kMixedNulls;
      std::vector<Value> row;
      for (ColumnIndex c = 0; c < 5; ++c) {
        row.push_back(null_at(form, rng) ? Value::null()
                                         : cell(c, form, r, rng));
      }
      rows_.push_back(std::move(row));
    }
  }

  static Schema schema() {
    return Schema({{"b", DataType::boolean()},
                   {"i", DataType::int64()},
                   {"x", DataType::float64()},
                   {"s", DataType::varchar(6)},
                   {"d", DataType::date()}});
  }

  static bool null_at(Form form, SplitMix64& rng) {
    const std::uint64_t roll = rng.next() % 8;
    switch (form) {
      case kAllNull:
        return true;
      case kNullOutsideSpan:
        return roll == 0;
      case kMixedNulls:
        return roll < 3;
      default:
        return false;
    }
  }

  /// An int64 of the chunk's form; `base` is its minimum.
  static std::int64_t int_of(Form form, std::size_t r, std::int64_t base,
                             SplitMix64& rng) {
    const std::uint64_t u = rng.next();
    switch (form) {
      case kConstant:
        return base;
      case kSpan1:
      case kNullOutsideSpan:
        return base + static_cast<std::int64_t>(u % 256);
      case kSpan2:
        return base + static_cast<std::int64_t>(u % 65536);
      case kSpan4:
        return base + static_cast<std::int64_t>(u % (1ull << 32));
      case kFullSpan:
        if (r % kChunkRows == 5) {
          return std::numeric_limits<std::int64_t>::min();
        }
        if (r % kChunkRows == 6) {
          return std::numeric_limits<std::int64_t>::max();
        }
        return static_cast<std::int64_t>(u);
      default:
        return static_cast<std::int64_t>(u % 1000) - 500;
    }
  }

  Value cell(ColumnIndex c, Form form, std::size_t r, SplitMix64& rng) const {
    switch (c) {
      case kB:
        return Value::boolean(form == kConstant || rng.next() % 2 == 0);
      case kI:
        return Value::int64(int_of(form, r, kBase, rng));
      case kX: {
        // Signed zeros, NaN payloads, infinities and denormals among
        // ordinary values; every bit pattern must survive.
        static const std::uint64_t kSpecial[] = {
            0x0000000000000000ull, 0x8000000000000000ull,
            0x7ff8000000000abcull, 0xfff8000000000001ull,
            0x7ff0000000000000ull, 0xfff0000000000000ull,
            0x0000000000000001ull};
        if (form == kConstant) return Value::float64(2.5);
        const std::uint64_t u = rng.next();
        double v = static_cast<double>(u % 100000) / 8.0 - 5000.0;
        if (u % 5 == 0) std::memcpy(&v, &kSpecial[u / 5 % 7], sizeof(v));
        return Value::float64(v);
      }
      case kS: {
        const std::uint64_t u = rng.next();
        std::size_t k = 0;
        switch (form) {
          case kConstant:
            k = 7;
            break;
          case kSpan1:
          case kNullOutsideSpan:
            k = 100 + u % 256;
            break;
          case kSpan2:
            k = u % 65536;
            break;
          case kSpan4:
          case kFullSpan:
            k = u % ids_.size();
            break;
          default:
            k = u % 1000;
            break;
        }
        return Value::varchar(std::string(pool_.view(ids_[k])));
      }
      default:
        return Value::date(int_of(form, r, 14000, rng));
    }
  }

  // ---- The three ways to build the same column ---------------------------

  TablePtr rows_table() {
    auto t = std::make_shared<Table>("T", schema(), pool_);
    for (const std::vector<Value>& row : rows_) t->append_row_unchecked(row);
    return t;
  }

  /// Through the vectorized writers, 100 lanes at a time, with junk
  /// payloads under NULL.
  TablePtr batch_table() {
    auto t = std::make_shared<Table>("T", schema(), pool_);
    for (std::size_t base = 0; base < kRows; base += 100) {
      const std::size_t k = std::min<std::size_t>(100, kRows - base);
      for (ColumnIndex c = 0; c < 5; ++c) {
        std::vector<std::uint64_t> valid((k + 63) / 64), bits((k + 63) / 64);
        std::vector<std::int64_t> ints(k, 777);
        std::vector<double> doubles(k, -1.5);
        std::vector<StringId> strs(k, 3);
        for (std::size_t i = 0; i < k; ++i) {
          const Value& v = rows_[base + i][c];
          if (v.is_null()) continue;
          valid[i / 64] |= 1ull << (i % 64);
          if (c == kB && v.as_bool()) bits[i / 64] |= 1ull << (i % 64);
          if (c == kI || c == kD) ints[i] = v.as_int64();
          if (c == kX) doubles[i] = v.as_double();
          if (c == kS) strs[i] = pool_.intern(v.as_string());
        }
        Column& col = t->column_mut(c);
        switch (c) {
          case kB:
            col.append_bool_bits(bits.data(), valid.data(), k);
            break;
          case kX:
            col.append_lanes_double(doubles.data(), valid.data(), k);
            break;
          case kS:
            col.append_lanes_string(strs.data(), valid.data(), k);
            break;
          default:
            col.append_lanes_int64(ints.data(), valid.data(), k);
            break;
        }
      }
      t->bump_rows(k);
    }
    return t;
  }

  /// Restored from a snapshot image into a fresh context (the restored
  /// table's pool is that context's).
  TablePtr restored_table(const TablePtr& t, exec::ExecContext& ctx,
                          StringPool& pool) {
    exec::ExecContext src;
    src.pool = &pool_;
    EXPECT_TRUE(src.tables.add(t).is_ok());
    ctx.pool = &pool;
    const auto info =
        store::decode_snapshot(store::encode_snapshot(src, 0), ctx);
    EXPECT_TRUE(info.is_ok()) << info.status().to_string();
    return ctx.tables.find("T").value();
  }

  // ---- The reference ------------------------------------------------------

  bool ref_valid(std::size_t r, ColumnIndex c) const {
    return !rows_[r][c].is_null();
  }
  /// Row r's plain lane in column c, widened to 64 bits: the canonical
  /// payload when NULL, a double's bit pattern, a string's id.
  std::uint64_t ref_lane(std::size_t r, ColumnIndex c) const {
    const Value& v = rows_[r][c];
    switch (c) {
      case kB:
        return v.is_null() ? 0 : (v.as_bool() ? 1 : 0);
      case kX: {
        const double d = v.is_null() ? 0.0 : v.as_double();
        std::uint64_t b;
        std::memcpy(&b, &d, sizeof(b));
        return b;
      }
      case kS:
        return v.is_null() ? kInvalidStringId
                           : pool_.find(v.as_string());
      default:
        return v.is_null() ? 0 : static_cast<std::uint64_t>(v.as_int64());
    }
  }

  template <typename T>
  static std::uint64_t lane_bits(T v) {
    if constexpr (std::is_same_v<T, double>) {
      std::uint64_t b;
      std::memcpy(&b, &v, sizeof(b));
      return b;
    } else {
      return static_cast<std::uint64_t>(v);
    }
  }

  /// Every range reader of one column's data against the reference.
  template <typename T>
  void expect_ranges(const ColumnData<T>& data, ColumnIndex c) const {
    ASSERT_EQ(data.size(), kRows);
    SplitMix64 rng(c + 1);
    std::vector<std::pair<std::size_t, std::size_t>> ranges{{0, kRows}};
    for (std::size_t k = 0; k < data.num_chunks(); ++k) {
      ranges.emplace_back(k * kChunkRows,
                          std::min(kChunkRows, kRows - k * kChunkRows));
    }
    for (int i = 0; i < 300; ++i) {
      const std::size_t begin = rng.next() % kRows;
      const std::size_t n = rng.next() % std::min<std::size_t>(
                                             2 * kChunkRows, kRows - begin + 1);
      ranges.emplace_back(begin, n);
    }
    std::vector<T> out(kRows), scratch(kRows);
    for (const auto& [begin, n] : ranges) {
      data.copy_to(begin, n, out.data());
      const T* lanes = data.lanes(begin, n, scratch.data());
      const T* window = data.window(begin, n);
      const std::size_t chunk = begin / kChunkRows;
      const bool one_chunk = n > 0 && (begin + n - 1) / kChunkRows == chunk;
      EXPECT_EQ(window != nullptr,
                one_chunk && data.lane_bytes(chunk) == sizeof(T))
          << "column " << c << " [" << begin << ", +" << n << ")";
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t want = ref_lane(begin + i, c);
        ASSERT_EQ(lane_bits(out[i]), want)
            << "copy_to, column " << c << " row " << begin + i;
        ASSERT_EQ(lane_bits(lanes[i]), want)
            << "lanes, column " << c << " row " << begin + i;
        if (window != nullptr) {
          ASSERT_EQ(lane_bits(window[i]), want)
              << "window, column " << c << " row " << begin + i;
        }
      }
    }
    // for_each_piece, the snapshot encoder's and row keys' walk.
    data.for_each_piece(
        0, kRows, [&](std::span<const T> piece, std::size_t at) {
          for (std::size_t i = 0; i < piece.size(); ++i) {
            ASSERT_EQ(lane_bits(piece[i]), ref_lane(at + i, c)) << at + i;
          }
        });
  }

  /// Reads `t` through every accessor and compares with the reference.
  void expect_plain_reads(const Table& t) const {
    ASSERT_EQ(t.num_rows(), kRows);
    for (ColumnIndex c = 0; c < 5; ++c) {
      const Column& col = t.column(c);
      // Row reads.
      for (std::size_t r = 0; r < kRows; ++r) {
        const RowIndex row = static_cast<RowIndex>(r);
        ASSERT_EQ(col.is_null(row), !ref_valid(r, c)) << c << "/" << r;
        std::uint64_t got = 0;
        switch (col.type().kind) {
          case TypeKind::kDouble:
            got = lane_bits(col.double_at(row));
            break;
          case TypeKind::kVarchar:
            got = col.string_at(row);
            break;
          default:
            got = static_cast<std::uint64_t>(col.int64_at(row));
            break;
        }
        ASSERT_EQ(got, ref_lane(r, c)) << "column " << c << " row " << r;
        if (c != kX) {  // NaN != NaN; doubles are compared by bits above
          ASSERT_TRUE(t.value_at(row, c) == rows_[r][c]) << c << "/" << r;
        }
      }
      // Validity words concatenate to the packed reference bitmap.
      std::vector<std::uint64_t> words, packed((kRows + 63) / 64, 0);
      for (std::size_t r = 0; r < kRows; ++r) {
        if (ref_valid(r, c)) packed[r / 64] |= 1ull << (r % 64);
      }
      for (std::size_t k = 0; k < col.num_chunks(); ++k) {
        const auto w = col.valid_words(k);
        words.insert(words.end(), w.begin(), w.end());
      }
      EXPECT_EQ(words, packed) << "column " << c;
      switch (col.type().kind) {
        case TypeKind::kDouble:
          expect_ranges(col.double_chunks(), c);
          break;
        case TypeKind::kVarchar:
          expect_ranges(col.string_chunks(), c);
          break;
        default:
          expect_ranges(col.int_chunks(), c);
          break;
      }
      // Row keys: contiguous windows and gathered rows.
      std::vector<std::uint64_t> bits(kRows);
      std::vector<std::uint8_t> nulls(kRows);
      std::vector<RowIndex> gathered;
      for (std::size_t r = 0; r < kRows; r += 3) {
        gathered.push_back(static_cast<RowIndex>(r));
      }
      auto want_bits = [&](std::size_t r) -> std::uint64_t {
        if (!ref_valid(r, c)) return 0;
        if (c == kX && rows_[r][c].as_double() == 0.0) return 0;  // -0.0
        return ref_lane(r, c);
      };
      for (const std::size_t base : {std::size_t{0}, std::size_t{1000}}) {
        for (std::size_t at = base; at < kRows; at += kChunkRows) {
          const std::size_t n = std::min(kChunkRows, kRows - at);
          relational::key_cells_batch(t, static_cast<RowIndex>(at), nullptr,
                                      n, c, bits.data(), nulls.data());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(nulls[i], ref_valid(at + i, c) ? 0 : 1) << at + i;
            ASSERT_EQ(bits[i], want_bits(at + i)) << c << "/" << at + i;
          }
        }
      }
      relational::key_cells_batch(t, 0, gathered.data(), gathered.size(), c,
                                  bits.data(), nulls.data());
      for (std::size_t i = 0; i < gathered.size(); ++i) {
        ASSERT_EQ(bits[i], want_bits(gathered[i])) << c << "/" << gathered[i];
      }
    }
    // Vectorized filters against the row engine, from the first row and
    // from a row inside a chunk (windows that straddle chunk boundaries).
    relational::TableScope scope(t);
    const auto col = [](const char* name) {
      return relational::Expr::make_column("", name);
    };
    const auto bin = [](relational::BinaryOp op, relational::ExprPtr a,
                        relational::ExprPtr b) {
      return relational::Expr::make_binary(op, std::move(a), std::move(b));
    };
    const auto lit = [](Value v) {
      return relational::Expr::make_literal(std::move(v));
    };
    using relational::BinaryOp;
    const std::vector<relational::ExprPtr> predicates{
        col("b"),
        bin(BinaryOp::kEq, col("b"), lit(Value::boolean(false))),
        bin(BinaryOp::kGt, col("i"), lit(Value::int64(kBase + 100))),
        bin(BinaryOp::kLe, col("i"), lit(Value::int64(0))),
        bin(BinaryOp::kEq, col("i"), col("i")),
        bin(BinaryOp::kEq, col("x"), col("x")),
        bin(BinaryOp::kLt, col("x"), lit(Value::float64(0.0))),
        bin(BinaryOp::kEq, col("s"), lit(Value::varchar("v7"))),
        bin(BinaryOp::kNe, col("s"), lit(Value::varchar("v150"))),
        bin(BinaryOp::kGe, col("d"), lit(Value::date(14100))),
    };
    StringPool& pool = t.pool();
    for (const relational::ExprPtr& e : predicates) {
      auto bound = relational::bind_predicate(e, scope, {}, pool);
      ASSERT_TRUE(bound.is_ok()) << e->to_string();
      for (const RowIndex first : {RowIndex{0}, RowIndex{1000}}) {
        EXPECT_EQ(relational::filter_rows(t, **bound, first),
                  relational::oracle::filter_rows(t, **bound, first))
            << e->to_string() << " from row " << first;
      }
    }
    // Wire bytes against the per-cell encode_value oracle.
    exec::StatementResult result;
    result.kind = exec::StatementResult::Kind::kTable;
    result.table = std::make_shared<Table>(t);
    const std::vector<exec::StatementResult> results{result};
    std::vector<std::uint8_t> wire;
    ByteWriter w(wire);
    net::encode_results(results, w);
    EXPECT_EQ(wire, wire_oracle::encode_results(results));
  }

  StringPool pool_;
  std::vector<StringId> ids_;
  std::vector<std::vector<Value>> rows_;
};

/// Validity bits travel with their chunk through a copy and concatenate
/// to the packed bitmap.
TEST_F(ColumnChunkTest, ValidityBitsTravelWithTheirChunk) {
  ColumnData<StringId> a;
  std::vector<bool> oracle;
  SplitMix64 rng(7);
  for (std::uint32_t i = 0; i < 8000; ++i) {
    const bool v = rng.next() % 3 != 0;
    a.push_back(i, v);
    oracle.push_back(v);
  }
  const ColumnData<StringId> copy = a;
  ASSERT_EQ(copy.num_sealed_chunks(), 7u);
  std::vector<std::uint64_t> packed((oracle.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(a.valid(i), oracle[i]) << i;
    ASSERT_EQ(copy.valid(i), oracle[i]) << i;
    if (oracle[i]) packed[i / 64] |= 1ull << (i % 64);
  }
  // The chunks' word spans concatenate to the packed bitmap, with every
  // bit past the size zero.
  std::vector<std::uint64_t> words;
  for (std::size_t c = 0; c < a.num_chunks(); ++c) {
    EXPECT_EQ(a.valid_words(c).data() == copy.valid_words(c).data(),
              c < a.num_sealed_chunks());
    words.insert(words.end(), a.valid_words(c).begin(),
                 a.valid_words(c).end());
  }
  EXPECT_EQ(words, packed);
  // Bulk append from packed words, as snapshot restore does.
  std::vector<std::uint32_t> values(oracle.size());
  for (std::uint32_t i = 0; i < values.size(); ++i) values[i] = i;
  ColumnData<StringId> bulk;
  bulk.append(values.data(), values.size(), packed.data());
  ASSERT_EQ(bulk.size(), a.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(bulk.valid(i), oracle[i]) << i;
    ASSERT_EQ(bulk[i], a[i]) << i;
  }
}

/// The all-valid append, from any size and in pieces of any length,
/// stores what push_back does: the same rows, every one valid, the same
/// chunks, sealed only when the next row arrives, and the same bytes.
TEST_F(ColumnChunkTest, AllValidAppendMatchesPushBack) {
  for (const std::size_t n : {0ul, 1ul, 63ul, 65ul, 1024ul, 1025ul, 3000ul}) {
    SCOPED_TRACE(std::to_string(n) + " rows");
    ColumnData<std::uint32_t> one;
    ColumnData<std::uint32_t> bulk;
    std::vector<std::uint32_t> values;
    SplitMix64 rng(n);
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(static_cast<std::uint32_t>(i * 7 + rng.next() % 5));
      one.push_back(values.back());
    }
    for (std::size_t i = 0; i < n;) {
      const std::size_t k = std::min<std::size_t>(n - i, 1 + rng.next() % 90);
      bulk.append(values.data() + i, k);
      i += k;
    }
    ASSERT_EQ(bulk.size(), n);
    EXPECT_EQ(bulk.num_sealed_chunks(), n == 0 ? 0 : (n - 1) / kChunkRows);
    EXPECT_EQ(bulk.byte_size(), one.byte_size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bulk.valid(i)) << i;
      ASSERT_EQ(bulk[i], values[i]) << i;
      ASSERT_EQ(one[i], values[i]) << i;
    }
    for (std::size_t c = 0; c < bulk.num_chunks(); ++c) {
      EXPECT_EQ(bulk.lane_bytes(c), one.lane_bytes(c)) << "chunk " << c;
      EXPECT_TRUE(std::equal(bulk.valid_words(c).begin(),
                             bulk.valid_words(c).end(),
                             one.valid_words(c).begin(),
                             one.valid_words(c).end()))
          << "chunk " << c;
    }
  }
}

TEST_F(ColumnChunkTest, EveryFormIsBuilt) {
  const TablePtr t = rows_table();
  auto widths = [&](const auto& data) {
    std::set<std::size_t> out;
    for (std::size_t k = 0; k < data.num_sealed_chunks(); ++k) {
      out.insert(data.lane_bytes(k));
    }
    return out;
  };
  using W = std::set<std::size_t>;
  EXPECT_EQ(widths(t->column(kB).int_chunks()), (W{0, 1}));
  EXPECT_EQ(widths(t->column(kI).int_chunks()), (W{0, 1, 2, 4, 8}));
  EXPECT_EQ(widths(t->column(kD).int_chunks()), (W{0, 1, 2, 4, 8}));
  EXPECT_EQ(widths(t->column(kX).double_chunks()), (W{8}));
  EXPECT_EQ(widths(t->column(kS).string_chunks()), (W{0, 1, 2, 4}));
  // The all-NULL chunk is constant, and the no-NULL chunks keep no
  // validity words: they read the one shared all-ones array.
  const Column& i = t->column(kI);
  EXPECT_EQ(i.int_chunks().lane_bytes(kAllNull), 0u);
  EXPECT_EQ(i.valid_words(kConstant).data(), i.valid_words(kSpan1).data());
  EXPECT_NE(i.valid_words(kAllNull).data(),
            i.valid_words(kNullOutsideSpan).data());
  EXPECT_EQ(i.int_chunks().lane_bytes(kNullOutsideSpan), 1u);
  EXPECT_EQ(i.num_chunks(), kNumForms + 1);
}

TEST_F(ColumnChunkTest, EveryAccessorReadsThePlainLanes) {
  expect_plain_reads(*rows_table());
  expect_plain_reads(*batch_table());
}

TEST_F(ColumnChunkTest, RestoredColumnsReadThePlainLanes) {
  exec::ExecContext ctx;
  StringPool pool;
  const TablePtr restored = restored_table(rows_table(), ctx, pool);
  // The restored pool interns the same strings in the same order, so
  // string ids, and with them every reference lane, are unchanged.
  expect_plain_reads(*restored);
}

TEST_F(ColumnChunkTest, RowBatchAndRestoredColumnsStoreTheSameBytes) {
  const TablePtr by_row = rows_table();
  const TablePtr by_batch = batch_table();
  exec::ExecContext ctx;
  StringPool pool;
  const TablePtr restored = restored_table(by_row, ctx, pool);
  std::size_t plain = 0;
  for (ColumnIndex c = 0; c < 5; ++c) {
    const std::size_t bytes = by_row->column(c).byte_size();
    EXPECT_EQ(by_batch->column(c).byte_size(), bytes) << "column " << c;
    EXPECT_EQ(restored->column(c).byte_size(), bytes) << "column " << c;
    plain += kRows * (c == kS ? sizeof(StringId) : 8) + kRows / 8;
  }
  EXPECT_EQ(by_batch->byte_size(), by_row->byte_size());
  EXPECT_EQ(restored->byte_size(), by_row->byte_size());
  EXPECT_LT(by_row->byte_size(), plain);
}

TEST_F(ColumnChunkTest, CloneSharesEverySealedChunk) {
  const TablePtr source = rows_table();
  Table clone(*source);
  for (std::size_t r = 0; r < kChunkRows + 10; ++r) {
    clone.append_row_unchecked(rows_[r]);
  }
  for (ColumnIndex c = 0; c < 5; ++c) {
    auto expect_shared = [&](const auto& a, const auto& b) {
      ASSERT_EQ(a.num_sealed_chunks(), kNumForms);
      ASSERT_EQ(b.num_sealed_chunks(), kNumForms + 1);
      for (std::size_t k = 0; k < a.num_sealed_chunks(); ++k) {
        EXPECT_EQ(a.chunk_address(k), b.chunk_address(k)) << c << "/" << k;
      }
    };
    switch (source->column(c).type().kind) {
      case TypeKind::kDouble:
        expect_shared(source->column(c).double_chunks(),
                      clone.column(c).double_chunks());
        break;
      case TypeKind::kVarchar:
        expect_shared(source->column(c).string_chunks(),
                      clone.column(c).string_chunks());
        break;
      default:
        expect_shared(source->column(c).int_chunks(),
                      clone.column(c).int_chunks());
        break;
    }
  }
  expect_plain_reads(*source);
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

TEST_F(TableAppenderTest, AddRowMatchesRowAppend) {
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

  StringPool typed_pool;
  auto typed = std::make_shared<Table>("T", small, typed_pool);
  TableAppender typed_out(*typed);
  typed_out.add_row("a", std::int64_t{1}, 2.5);
  typed_out.add_row(std::string("b"), std::optional<std::int64_t>(), 3.0);
  typed_out.add_row(std::nullopt, std::int64_t{-4}, std::nullopt);
  typed_out.add_row(std::string_view("a"), std::optional<std::int64_t>(5),
                    -0.0);
  typed_out.commit();

  EXPECT_EQ(snapshot_of(typed_pool, typed), snapshot_of(want_pool, want));
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
