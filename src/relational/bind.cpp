#include "relational/bound_expr.hpp"

#include <algorithm>
#include <optional>

#include "relational/expr_rules.hpp"

namespace gems::relational {

using storage::TypeKind;
using storage::Value;

Result<Slot> TableScope::resolve(std::string_view qualifier,
                                 std::string_view column) const {
  if (!qualifier.empty() && qualifier != alias_ && qualifier != name_) {
    return not_found("unknown qualifier '" + std::string(qualifier) +
                     "' (expected '" + name_ + "'" +
                     (alias_.empty() ? "" : " or alias '" + alias_ + "'") +
                     ")");
  }
  auto idx = schema_.find(column);
  if (!idx) {
    return not_found("table '" + name_ + "' has no column '" +
                     std::string(column) + "'");
  }
  return Slot{0, *idx, schema_.column(*idx).type};
}

Result<Slot> MultiSourceScope::resolve(std::string_view qualifier,
                                       std::string_view column) const {
  auto slot = [&](std::size_t s, storage::ColumnIndex col) {
    return Slot{static_cast<std::uint16_t>(s), col,
                schemas_[s]->column(col).type};
  };
  if (qualifier.empty()) {
    // Bare column: unique across all sources or ambiguous.
    std::optional<Slot> found;
    for (std::size_t s = 0; s < schemas_.size(); ++s) {
      auto col = schemas_[s]->find(column);
      if (!col) continue;
      if (found) {
        return type_error("column '" + std::string(column) +
                          "' is ambiguous across the edge's tables; "
                          "qualify it");
      }
      found = slot(s, *col);
    }
    if (!found) {
      return not_found("no edge source has a column '" +
                       std::string(column) + "'");
    }
    return *found;
  }
  for (std::size_t s = 0; s < schemas_.size(); ++s) {
    const auto& quals = qualifiers_[s];
    if (std::find(quals.begin(), quals.end(), qualifier) == quals.end()) {
      continue;
    }
    auto col = schemas_[s]->find(column);
    if (!col) {
      return not_found("'" + std::string(qualifier) + "' has no column '" +
                       std::string(column) + "'");
    }
    return slot(s, *col);
  }
  return not_found("unknown qualifier '" + std::string(qualifier) +
                   "' in edge declaration");
}

namespace {

Cell cell_from_value(const Value& v, StringPool& pool) {
  if (v.is_null()) return Cell::null_cell();
  switch (v.kind()) {
    case TypeKind::kBool:
      return Cell::of_bool(v.as_bool());
    case TypeKind::kInt64:
      return Cell::of_int64(v.as_int64());
    case TypeKind::kDate:
      return Cell::of_int64(v.as_int64(), TypeKind::kDate);
    case TypeKind::kDouble:
      return Cell::of_double(v.as_double());
    case TypeKind::kVarchar:
      return Cell::of_string(pool.intern(v.as_string()));
  }
  GEMS_UNREACHABLE("bad value kind");
}

}  // namespace

Result<BoundExprPtr> bind_expr(const ExprPtr& expr, const Scope& scope,
                               const ParamMap& params, StringPool& pool) {
  GEMS_CHECK(expr != nullptr);
  auto out = std::make_unique<BoundExpr>();
  switch (expr->kind) {
    case Expr::Kind::kLiteral: {
      out->kind = BoundExpr::Kind::kConst;
      out->constant = cell_from_value(expr->literal, pool);
      out->type = value_type(expr->literal);
      return out;
    }
    case Expr::Kind::kParameter: {
      auto it = params.find(expr->param_name);
      if (it == params.end()) {
        return invalid_argument("unbound query parameter %" +
                                expr->param_name + "%");
      }
      out->kind = BoundExpr::Kind::kConst;
      out->constant = cell_from_value(it->second, pool);
      out->type = value_type(it->second);
      return out;
    }
    case Expr::Kind::kColumnRef: {
      GEMS_ASSIGN_OR_RETURN(out->slot,
                            scope.resolve(expr->qualifier, expr->column));
      out->kind = BoundExpr::Kind::kColumnRef;
      out->type = out->slot.type;
      return out;
    }
    case Expr::Kind::kUnary: {
      GEMS_ASSIGN_OR_RETURN(out->lhs,
                            bind_expr(expr->lhs, scope, params, pool));
      out->kind = BoundExpr::Kind::kUnary;
      out->uop = expr->uop;
      GEMS_ASSIGN_OR_RETURN(MaybeType type,
                            unary_type(expr->uop, out->lhs->type));
      out->type = *type;
      return out;
    }
    case Expr::Kind::kBinary: {
      GEMS_ASSIGN_OR_RETURN(out->lhs,
                            bind_expr(expr->lhs, scope, params, pool));
      GEMS_ASSIGN_OR_RETURN(out->rhs,
                            bind_expr(expr->rhs, scope, params, pool));
      out->kind = BoundExpr::Kind::kBinary;
      out->bop = expr->bop;
      GEMS_ASSIGN_OR_RETURN(
          MaybeType type,
          binary_type(expr->bop, out->lhs->type, out->rhs->type));
      out->type = *type;
      return out;
    }
  }
  GEMS_UNREACHABLE("bad expr kind");
}

Result<BoundExprPtr> bind_predicate(const ExprPtr& expr, const Scope& scope,
                                    const ParamMap& params, StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(auto bound, bind_expr(expr, scope, params, pool));
  if (bound->type.kind != TypeKind::kBool) {
    return type_error("condition '" + expr->to_string() +
                      "' is not boolean (type " + bound->type.to_string() +
                      ")");
  }
  return bound;
}

}  // namespace gems::relational
