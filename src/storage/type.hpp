// GraQL's strongly-typed attribute system (paper Sec. I design principle 3:
// "All database elements are strongly typed").
//
// Declared SQL-style types map onto physical kinds:
//   integer, bigint      -> Int64
//   float, double        -> Double
//   varchar(n)           -> Varchar (interned StringId storage, max length n)
//   date                 -> Date (days since 1970-01-01, Int32 range)
//   boolean              -> Bool
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace gems::storage {

enum class TypeKind : std::uint8_t {
  kBool,
  kInt64,
  kDouble,
  kVarchar,
  kDate,
};

std::string_view type_kind_name(TypeKind kind) noexcept;

/// A column's declared type. Varchar carries its declared maximum length,
/// which is enforced at ingest time.
struct DataType {
  TypeKind kind = TypeKind::kInt64;
  std::uint32_t varchar_length = 0;  // meaningful only for kVarchar

  static DataType boolean() { return {TypeKind::kBool, 0}; }
  static DataType int64() { return {TypeKind::kInt64, 0}; }
  static DataType float64() { return {TypeKind::kDouble, 0}; }
  static DataType varchar(std::uint32_t n) { return {TypeKind::kVarchar, n}; }
  static DataType date() { return {TypeKind::kDate, 0}; }

  bool operator==(const DataType&) const = default;

  /// True when values of `other` can be compared with values of this type
  /// without an explicit cast. Varchar lengths do not affect comparability;
  /// Int64 and Double are mutually comparable (numeric promotion).
  bool comparable_with(const DataType& other) const noexcept;

  bool is_numeric() const noexcept {
    return kind == TypeKind::kInt64 || kind == TypeKind::kDouble;
  }

  /// "varchar(10)", "integer", "date", ...
  std::string to_string() const;
};

/// Parses a GraQL DDL type name ("integer", "varchar(10)", ...).
Result<DataType> parse_data_type(std::string_view text);

// ---- Date encoding ---------------------------------------------------
// Dates are stored as days since the civil epoch 1970-01-01 (negative for
// earlier dates), using the standard proleptic-Gregorian conversion.

/// Days since epoch for a civil date.
std::int64_t civil_to_days(int year, unsigned month, unsigned day) noexcept;

/// Inverse of civil_to_days, defined for every int64 day number (the year
/// of an extreme one does not fit an int).
void days_to_civil(std::int64_t days, std::int64_t& year, unsigned& month,
                   unsigned& day) noexcept;

/// Parses "YYYY-MM-DD". Rejects out-of-range month/day.
Result<std::int64_t> parse_date(std::string_view text);

/// Formats days-since-epoch as "YYYY-MM-DD" (more year digits, or a
/// minus sign, outside years 0000-9999).
std::string format_date(std::int64_t days);

}  // namespace gems::storage
