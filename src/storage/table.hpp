// In-memory columnar table — the universal storage unit of the GEMS data
// model (paper Sec. I design principle 1: "All data is stored in tabular
// form"). Vertex and edge types are views over these tables (src/graph).
#pragma once

#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/large_array.hpp"
#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "storage/column.hpp"
#include "storage/schema.hpp"
#include "storage/value.hpp"

namespace gems::storage {

class Table {
 public:
  /// `pool` is the database-wide string interner; it must outlive the table.
  Table(std::string name, Schema schema, StringPool& pool);

  const std::string& name() const noexcept { return name_; }
  const Schema& schema() const noexcept { return schema_; }
  StringPool& pool() const noexcept { return *pool_; }

  std::size_t num_rows() const noexcept { return num_rows_; }
  std::size_t num_columns() const noexcept { return columns_.size(); }

  const Column& column(ColumnIndex i) const { return columns_.at(i); }
  Column& column_mut(ColumnIndex i) { return columns_.at(i); }

  /// Appends one row after validating arity, kinds and varchar lengths.
  Status append_row(std::span<const Value> values);

  /// append_row's check of a non-NULL cell of `kind` (`s`: a varchar's
  /// string): it fits column `c`'s kind (int64 fits double) and length.
  Status check_cell(ColumnIndex c, TypeKind kind, std::string_view s) const;

  /// Unchecked fast-path append used by generators and operators that have
  /// already validated types.
  void append_row_unchecked(std::span<const Value> values);

  /// For operators that append cells column-by-column via column_mut():
  /// registers that one full row has been appended to every column.
  void bump_row_count() {
#ifndef NDEBUG
    for (const auto& c : columns_) GEMS_DCHECK(c.size() == num_rows_ + 1);
#endif
    ++num_rows_;
  }

  /// Batch form of bump_row_count for operators that append whole column
  /// windows at a time (the vectorized engine).
  void bump_rows(std::size_t n) {
#ifndef NDEBUG
    for (const auto& c : columns_) GEMS_DCHECK(c.size() == num_rows_ + n);
#endif
    num_rows_ += n;
  }

  Value value_at(RowIndex row, ColumnIndex col) const {
    return columns_[col].value_at(row, *pool_);
  }

  /// Boxes an entire row.
  std::vector<Value> row(RowIndex row) const;

  /// Approximate in-memory footprint (catalog sizing, paper Sec. III).
  std::size_t byte_size() const noexcept;

  /// Snapshot restore (gems::store): after every column has been
  /// bulk-loaded via column_mut().load_*, validates that all columns have
  /// the same length and adopts it as the row count. Corrupt input (ragged
  /// columns) is reported as a Status, never adopted.
  Status finish_restore();

  /// Debug rendering: header + first `max_rows` rows.
  std::string to_string(std::size_t max_rows = 20) const;

 private:
  std::string name_;
  Schema schema_;
  StringPool* pool_;
  std::vector<Column> columns_;
  std::size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

/// The bulk-append path (DESIGN.md §5n). Stages cells for one table in
/// typed lanes, with no Value boxing, and appends them all in commit().
/// Each column receives exactly one cell per row; within a row the cells
/// may arrive in any column order. Callers have validated kinds and
/// varchar lengths (Table::check_cell), as for append_row_unchecked.
///
/// Strings are interned only in commit(), in (row, column index) order,
/// kChunkRows at a time through StringPool::intern_batch. So committing
/// rows gives the table and the pool exactly the bytes and ids that
/// append_row_unchecked of the same rows gives, and discarding an
/// appender leaves both untouched.
class TableAppender {
 public:
  explicit TableAppender(Table& table);

  std::size_t staged_rows() const noexcept { return rows_; }

  // One cell of column `c` in the row being staged. put_int64 serves Int64
  // and Date columns.
  void put_null(ColumnIndex c);
  void put_int64(ColumnIndex c, std::int64_t v);
  void put_double(ColumnIndex c, double v);
  void put_bool(ColumnIndex c, bool v);
  void put_string(ColumnIndex c, std::string_view s);

  /// Ends the staged row; every column must have its cell.
  void end_row();

  /// Stages one row whose cells are given in column order, then ends it.
  /// Arguments are evaluated in no fixed order, so a caller passes
  /// finished values, not calls that draw from a shared generator.
  template <typename... Cells>
  void add_row(const Cells&... cells) {
    GEMS_DCHECK(sizeof...(cells) == lanes_.size());
    ColumnIndex c = 0;
    (put(c++, cells), ...);
    end_row();
  }

  /// Appends every staged row to the table and empties the stage.
  void commit();

 private:
  struct Slot {
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  // The staging arrays grow with the batch, so they come from
  // large_array_resource() (DESIGN.md §5m).
  template <typename T>
  using Array = std::pmr::vector<T>;
  /// One column's staged cells; only the payload lane of its kind is used.
  struct Lane {
    TypeKind kind = TypeKind::kInt64;
    std::size_t cells = 0;
    Array<std::uint64_t> valid{large_array_resource()};  // validity words
    Array<std::int64_t> ints{large_array_resource()};    // Int64, Date
    Array<double> doubles{large_array_resource()};
    Array<std::uint64_t> bits{large_array_resource()};  // Bool, packed
    Array<Slot> slots{large_array_resource()};  // Varchar: range of bytes_
    Array<StringId> ids{large_array_resource()};  // Varchar: by commit()
  };

  Lane& next_cell(ColumnIndex c, TypeKind kind, bool valid);

  void put(ColumnIndex c, std::string_view s) { put_string(c, s); }
  void put(ColumnIndex c, std::int64_t v) { put_int64(c, v); }
  void put(ColumnIndex c, double v) { put_double(c, v); }
  void put(ColumnIndex c, std::nullopt_t) { put_null(c); }
  template <typename T>
  void put(ColumnIndex c, const std::optional<T>& v) {
    v ? put(c, *v) : put_null(c);
  }

  Table* table_;
  std::vector<Lane> lanes_;
  std::vector<ColumnIndex> varchar_columns_;
  std::pmr::string bytes_{large_array_resource()};  // staged string bytes
  // commit()'s intern batch (kChunkRows strings), allocated once: freed
  // per commit, these buffers left a heap hole below each string-pool
  // chunk the commit sealed (EXPERIMENTS.md E-BIGARRAYS).
  std::vector<std::string_view> intern_batch_;
  std::vector<StringId*> intern_targets_;
  std::vector<StringId> intern_ids_;
  std::size_t rows_ = 0;
};

}  // namespace gems::storage
