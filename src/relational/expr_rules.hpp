// The one set of expression rules. Every layer that types or evaluates a
// GraQL expression takes them from here: the binder (bind.cpp), the static
// analyzer (graql/analyzer.cpp, which passes "unknown" for an unbound
// %parameter%), group_by's aggregate outputs, and the int64 arithmetic of
// the kernels, the scalar evaluator and the row oracle (DESIGN.md §5k).
#pragma once

#include <cstdint>
#include <optional>

#include "common/status.hpp"
#include "relational/expr.hpp"
#include "storage/type.hpp"
#include "storage/value.hpp"

namespace gems::relational {

/// A static type, or nullopt when it is unknown before binding (an unbound
/// %parameter% during analysis). The rules accept an unknown operand
/// wherever some type would be accepted, and return unknown where the
/// result type depends on it.
using MaybeType = std::optional<storage::DataType>;

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

inline bool is_comparison(BinaryOp op) noexcept {
  return op >= BinaryOp::kEq && op <= BinaryOp::kGe;
}

inline bool is_logical(BinaryOp op) noexcept {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

/// Type of a literal or a bound parameter's value. A string has its own
/// length as its varchar width; NULL is typed integer.
storage::DataType value_type(const storage::Value& v);

/// Result type of `op operand`; kTypeError when the operand does not fit.
Result<MaybeType> unary_type(UnaryOp op, const MaybeType& operand);

/// Result type of `lhs op rhs`. Logical operators need booleans,
/// comparisons comparable operands (numeric promotion between integer and
/// float; varchar widths do not matter), arithmetic numeric operands.
/// Arithmetic is float when either side is, and division always is.
Result<MaybeType> binary_type(BinaryOp op, const MaybeType& lhs,
                              const MaybeType& rhs);

/// Output type of an aggregate over `input` (ignored by count(*)): counts
/// are integer, avg is float, sum keeps its numeric input type, min/max
/// keep the input type.
Result<MaybeType> agg_output_type(AggKind kind, const MaybeType& input);

// ---- The int64 rule ------------------------------------------------------
// Integer +, -, * and unary - wrap modulo 2^64 (two's complement), in every
// evaluator and in sum(). Computed in unsigned space, so no input is
// undefined behaviour.

inline std::int64_t wrap_add(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                   static_cast<std::uint64_t>(y));
}
inline std::int64_t wrap_sub(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y));
}
inline std::int64_t wrap_mul(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                   static_cast<std::uint64_t>(y));
}
inline std::int64_t wrap_neg(std::int64_t x) noexcept { return wrap_sub(0, x); }

}  // namespace gems::relational
