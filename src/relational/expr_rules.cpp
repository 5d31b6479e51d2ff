#include "relational/expr_rules.hpp"

#include <string>

#include "common/check.hpp"

namespace gems::relational {

using storage::DataType;
using storage::TypeKind;

namespace {

bool is_bool(const MaybeType& t) { return !t || t->kind == TypeKind::kBool; }
bool is_numeric(const MaybeType& t) { return !t || t->is_numeric(); }

std::string type_name(const MaybeType& t) {
  return t ? t->to_string() : "unknown";
}

}  // namespace

DataType value_type(const storage::Value& v) {
  if (v.is_null()) return DataType::int64();
  if (v.kind() == TypeKind::kVarchar) {
    return DataType::varchar(static_cast<std::uint32_t>(v.as_string().size()));
  }
  return DataType{v.kind(), 0};
}

Result<MaybeType> unary_type(UnaryOp op, const MaybeType& operand) {
  if (op == UnaryOp::kNot) {
    if (!is_bool(operand)) {
      return type_error("'not' requires a boolean operand, got " +
                        type_name(operand));
    }
    return MaybeType(DataType::boolean());
  }
  if (!is_numeric(operand)) {
    return type_error("unary '-' requires a numeric operand, got " +
                      type_name(operand));
  }
  return operand;
}

Result<MaybeType> binary_type(BinaryOp op, const MaybeType& lhs,
                              const MaybeType& rhs) {
  auto fail = [&] {
    return type_error("operator '" + std::string(binary_op_name(op)) +
                      "' cannot combine " + type_name(lhs) + " and " +
                      type_name(rhs));
  };
  if (is_logical(op)) {
    if (!is_bool(lhs) || !is_bool(rhs)) return fail();
    return MaybeType(DataType::boolean());
  }
  if (is_comparison(op)) {
    // The paper's example of a rejected query: "comparing a date to a
    // floating-point number" (Sec. III-A).
    if (lhs && rhs && !lhs->comparable_with(*rhs)) return fail();
    return MaybeType(DataType::boolean());
  }
  if (!is_numeric(lhs) || !is_numeric(rhs)) return fail();
  if (op == BinaryOp::kDiv) return MaybeType(DataType::float64());
  if ((lhs && lhs->kind == TypeKind::kDouble) ||
      (rhs && rhs->kind == TypeKind::kDouble)) {
    return MaybeType(DataType::float64());
  }
  if (!lhs || !rhs) return MaybeType();
  return MaybeType(DataType::int64());
}

Result<MaybeType> agg_output_type(AggKind kind, const MaybeType& input) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return MaybeType(DataType::int64());
    case AggKind::kSum:
    case AggKind::kAvg:
      if (!is_numeric(input)) {
        return type_error(std::string(kind == AggKind::kSum ? "sum" : "avg") +
                          "() requires a numeric column, got " +
                          type_name(input));
      }
      return kind == AggKind::kSum ? input : MaybeType(DataType::float64());
    case AggKind::kMin:
    case AggKind::kMax:
      return input;
  }
  GEMS_UNREACHABLE("bad agg kind");
}

}  // namespace gems::relational
