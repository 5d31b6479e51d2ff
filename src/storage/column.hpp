// Columnar storage. One Column per attribute; Int64/Date/Bool share the
// int64 representation, Varchar stores interned StringIds (see
// common/string_pool.hpp). Nulls are tracked in a validity bitmap. Values
// and validity bits live together in kChunkRows-row chunks
// (storage/column_data.hpp), so copying a column shares its sealed chunks
// and copies only the tail. A chunk is narrowed when it seals (a constant,
// or value − min in 1, 2 or 4 bytes, and no validity words without a
// NULL), and every reader sees the plain lanes: row reads return by value
// and range reads widen into the caller's buffer.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/string_pool.hpp"
#include "storage/column_data.hpp"
#include "storage/type.hpp"
#include "storage/value.hpp"

namespace gems::storage {

using RowIndex = std::uint32_t;

class Column {
 public:
  explicit Column(DataType type);

  const DataType& type() const noexcept { return type_; }
  std::size_t size() const noexcept {
    return std::visit([](const auto& d) { return d.size(); }, data_);
  }

  // ---- Appending (ingest path) ----------------------------------------
  void append_null();
  void append_bool(bool v);
  void append_int64(std::int64_t v);  // also used for dates
  void append_double(double v);
  void append_string(StringId v);

  /// Appends a boxed value; the value's kind must match the column type
  /// (callers validate beforehand). `pool` interns varchar payloads.
  void append_value(const Value& v, StringPool& pool);

  /// Appends row `row` of `src` (same type kind; pools must be shared so
  /// string ids stay valid).
  void append_from(const Column& src, RowIndex row);

  /// Bulk form of append_from: appends rows `rows[0..n)` of `src` in
  /// order. The type dispatch happens once per call instead of once per
  /// row; output bytes are identical to n append_from calls.
  void append_gather(const Column& src, const RowIndex* rows, std::size_t n);

  // ---- Batch appending (vectorized operators) -------------------------
  // Appends `n` lanes with validity given as packed bit-words (bit i set
  // = lane i non-null; bits at or past n must be zero). NULL lanes store
  // the same zero payloads the scalar append_null writes, so tables built
  // batch-at-a-time are byte-identical to row-at-a-time ones (snapshots
  // write each column's widened lanes and its packed validity bitmap).
  void append_lanes_int64(const std::int64_t* lanes,
                          const std::uint64_t* valid, std::size_t n);
  void append_lanes_double(const double* lanes, const std::uint64_t* valid,
                           std::size_t n);
  void append_lanes_string(const StringId* lanes, const std::uint64_t* valid,
                           std::size_t n);
  /// Bool lanes arrive as packed value bit-words (bit set = true).
  void append_bool_bits(const std::uint64_t* bits, const std::uint64_t* valid,
                        std::size_t n);

  // ---- Reading (scan path) ---------------------------------------------
  bool is_null(RowIndex row) const noexcept {
    switch (type_.kind) {
      case TypeKind::kDouble:
        return !double_chunks().valid(row);
      case TypeKind::kVarchar:
        return !string_chunks().valid(row);
      default:
        return !int_chunks().valid(row);
    }
  }

  bool bool_at(RowIndex row) const {
    GEMS_DCHECK(type_.kind == TypeKind::kBool);
    return int_chunks()[row] != 0;
  }
  std::int64_t int64_at(RowIndex row) const {
    GEMS_DCHECK(type_.kind == TypeKind::kInt64 ||
                type_.kind == TypeKind::kDate ||
                type_.kind == TypeKind::kBool);
    return int_chunks()[row];
  }
  double double_at(RowIndex row) const {
    GEMS_DCHECK(type_.kind == TypeKind::kDouble);
    return double_chunks()[row];
  }
  StringId string_at(RowIndex row) const {
    GEMS_DCHECK(type_.kind == TypeKind::kVarchar);
    return string_chunks()[row];
  }

  /// Boxes row `row` (strings are copied out of `pool`).
  Value value_at(RowIndex row, const StringPool& pool) const;

  /// Typed payload chunks for vectorized scans, the wire and the snapshot
  /// encoder: in-place windows over full-width chunks and the tail, and
  /// copy_to() widening any range. Only the accessor matching the storage
  /// kind may be called (Bool, Int64 and Date store int64).
  const ColumnData<std::int64_t>& int_chunks() const {
    return std::get<ColumnData<std::int64_t>>(data_);
  }
  const ColumnData<double>& double_chunks() const {
    return std::get<ColumnData<double>>(data_);
  }
  const ColumnData<StringId>& string_chunks() const {
    return std::get<ColumnData<StringId>>(data_);
  }

  /// Chunks of the payload (the last one may be partial).
  std::size_t num_chunks() const noexcept {
    return std::visit([](const auto& d) { return d.num_chunks(); }, data_);
  }
  /// Validity words of chunk `c` (ColumnData::valid_words); the spans
  /// of all chunks concatenate to the column's packed validity bitmap.
  std::span<const std::uint64_t> valid_words(std::size_t c) const noexcept {
    return std::visit([c](const auto& d) { return d.valid_words(c); },
                      data_);
  }

  /// Stored bytes of the payload and its validity words (catalog sizing,
  /// Sec. III; ColumnData::byte_size).
  std::size_t byte_size() const noexcept;

  // ---- Snapshot restore (gems::store) ---------------------------------
  /// Fills an empty column from deserialized arrays. T is the storage
  /// kind's payload type (int64, double or StringId) and must match the
  /// column, and the validity bitmap's size must match the data; a
  /// mismatch is corrupt input, reported as a Status and never applied.
  template <typename T>
  Status load(std::span<const T> data, const DynamicBitset& valid);

 private:
  ColumnData<std::int64_t>& ints() {
    return std::get<ColumnData<std::int64_t>>(data_);
  }
  ColumnData<double>& doubles() {
    return std::get<ColumnData<double>>(data_);
  }
  ColumnData<StringId>& strs() {
    return std::get<ColumnData<StringId>>(data_);
  }

  DataType type_;
  std::variant<ColumnData<std::int64_t>, ColumnData<double>,
               ColumnData<StringId>>
      data_;
};

}  // namespace gems::storage
