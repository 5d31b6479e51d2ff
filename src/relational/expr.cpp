#include "relational/expr.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gems::relational {

std::string_view binary_op_name(BinaryOp op) noexcept {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

void set_span(Expr& e, std::uint32_t line, std::uint32_t column,
              std::uint32_t end_line, std::uint32_t end_column) {
  e.src_line = line;
  e.src_column = column;
  e.src_end_line = end_line;
  e.src_end_column = end_column;
}

// Covering range of two (possibly unknown) node spans.
void merge_spans(Expr& e, const Expr* a, const Expr* b) {
  const Expr* first = a;
  const Expr* last = a;
  if (b != nullptr && b->src_line != 0) {
    if (first == nullptr || first->src_line == 0 ||
        b->src_line < first->src_line ||
        (b->src_line == first->src_line &&
         b->src_column < first->src_column)) {
      first = b;
    }
    if (last == nullptr || last->src_line == 0 ||
        b->src_end_line > last->src_end_line ||
        (b->src_end_line == last->src_end_line &&
         b->src_end_column > last->src_end_column)) {
      last = b;
    }
  }
  if (first == nullptr || first->src_line == 0) return;
  set_span(e, first->src_line, first->src_column, last->src_end_line,
           last->src_end_column);
}

}  // namespace

ExprPtr Expr::make_literal(storage::Value v, std::uint32_t line,
                           std::uint32_t column, std::uint32_t end_line,
                           std::uint32_t end_column) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  set_span(*e, line, column, end_line, end_column);
  return e;
}

ExprPtr Expr::make_column(std::string qualifier, std::string column,
                          std::uint32_t line, std::uint32_t col,
                          std::uint32_t end_line, std::uint32_t end_column) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  set_span(*e, line, col, end_line, end_column);
  return e;
}

ExprPtr Expr::make_parameter(std::string name, std::uint32_t line,
                             std::uint32_t column, std::uint32_t end_line,
                             std::uint32_t end_column) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kParameter;
  e->param_name = std::move(name);
  set_span(*e, line, column, end_line, end_column);
  return e;
}

ExprPtr Expr::make_unary(UnaryOp op, ExprPtr operand) {
  GEMS_CHECK(operand != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnary;
  e->uop = op;
  e->lhs = std::move(operand);
  e->depth = e->lhs->depth + 1;
  merge_spans(*e, e->lhs.get(), nullptr);
  return e;
}

ExprPtr Expr::make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  GEMS_CHECK(lhs != nullptr && rhs != nullptr);
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBinary;
  e->bop = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  e->depth = std::max(e->lhs->depth, e->rhs->depth) + 1;
  merge_spans(*e, e->lhs.get(), e->rhs.get());
  return e;
}

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::kLiteral:
      if (!literal.is_null() &&
          literal.kind() == storage::TypeKind::kVarchar) {
        return "'" + literal.to_string() + "'";
      }
      return literal.is_null() ? "null" : literal.to_string();
    case Kind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case Kind::kParameter:
      return "%" + param_name + "%";
    case Kind::kUnary:
      return (uop == UnaryOp::kNot ? "not (" : "-(") + lhs->to_string() + ")";
    case Kind::kBinary:
      return "(" + lhs->to_string() + " " +
             std::string(binary_op_name(bop)) + " " + rhs->to_string() + ")";
  }
  GEMS_UNREACHABLE("bad expr kind");
}

bool Expr::equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kLiteral:
      if (literal.is_null() != other.literal.is_null()) return false;
      if (literal.is_null()) return true;
      return literal.kind() == other.literal.kind() &&
             literal == other.literal;
    case Kind::kColumnRef:
      return qualifier == other.qualifier && column == other.column;
    case Kind::kParameter:
      return param_name == other.param_name;
    case Kind::kUnary:
      return uop == other.uop && lhs->equals(*other.lhs);
    case Kind::kBinary:
      return bop == other.bop && lhs->equals(*other.lhs) &&
             rhs->equals(*other.rhs);
  }
  GEMS_UNREACHABLE("bad expr kind");
}

std::vector<ExprPtr> split_conjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!expr) return out;
  if (expr->kind == Expr::Kind::kBinary && expr->bop == BinaryOp::kAnd) {
    auto left = split_conjuncts(expr->lhs);
    auto right = split_conjuncts(expr->rhs);
    out.insert(out.end(), left.begin(), left.end());
    out.insert(out.end(), right.begin(), right.end());
    return out;
  }
  out.push_back(expr);
  return out;
}

}  // namespace gems::relational
