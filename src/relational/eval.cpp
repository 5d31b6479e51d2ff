#include "relational/eval.hpp"

#include "common/check.hpp"
#include "relational/expr_rules.hpp"
#include "relational/null_semantics.hpp"

namespace gems::relational {

using storage::TypeKind;

namespace {

Cell load_column(const Slot& slot, std::span<const RowCursor> sources) {
  GEMS_DCHECK(slot.source < sources.size());
  const RowCursor& cursor = sources[slot.source];
  GEMS_DCHECK(cursor.table != nullptr);
  const storage::Column& col = cursor.table->column(slot.column);
  if (col.is_null(cursor.row)) return Cell::null_cell();
  switch (col.type().kind) {
    case TypeKind::kBool:
      return Cell::of_bool(col.bool_at(cursor.row));
    case TypeKind::kInt64:
      return Cell::of_int64(col.int64_at(cursor.row));
    case TypeKind::kDate:
      return Cell::of_int64(col.int64_at(cursor.row), TypeKind::kDate);
    case TypeKind::kDouble:
      return Cell::of_double(col.double_at(cursor.row));
    case TypeKind::kVarchar:
      return Cell::of_string(col.string_at(cursor.row));
  }
  GEMS_UNREACHABLE("bad column kind");
}

// Three-valued comparison: -1/0/1, with nulls already filtered by caller.
int compare_cells(const Cell& a, const Cell& b, const StringPool& pool) {
  GEMS_DCHECK(!a.null && !b.null);
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  if (a.kind == TypeKind::kVarchar) {
    GEMS_DCHECK(b.kind == TypeKind::kVarchar);
    if (a.s == b.s) return 0;  // interned: same id <=> same string
    return pool.view(a.s).compare(pool.view(b.s)) < 0 ? -1 : 1;
  }
  if (a.kind == TypeKind::kBool) {
    GEMS_DCHECK(b.kind == TypeKind::kBool);
    return cmp3(a.b ? 1 : 0, b.b ? 1 : 0);
  }
  if (a.kind == TypeKind::kDate || b.kind == TypeKind::kDate) {
    GEMS_DCHECK(a.kind == b.kind);
    return cmp3(a.i, b.i);
  }
  // Numeric (Int64/Double mix): compare promoted.
  if (a.kind == TypeKind::kInt64 && b.kind == TypeKind::kInt64) {
    return cmp3(a.i, b.i);
  }
  const double x = a.kind == TypeKind::kDouble ? a.d : static_cast<double>(a.i);
  const double y = b.kind == TypeKind::kDouble ? b.d : static_cast<double>(b.i);
  return cmp3(x, y);
}

Cell eval_binary(const BoundExpr& expr, std::span<const RowCursor> sources,
                 const StringPool& pool) {
  // Logical operators use the shared three-valued truth tables
  // (null_semantics.hpp); the vectorized engine derives its word formulas
  // from the same tables, so the two engines cannot drift.
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    const bool is_and = expr.bop == BinaryOp::kAnd;
    const Tri l = tri_of(eval_cell(*expr.lhs, sources, pool));
    // Short-circuit exactly where the table says the lhs decides.
    if (is_and ? and_decided_by(l) : or_decided_by(l)) {
      return cell_of(is_and ? kAnd3[static_cast<int>(l)][0]
                            : kOr3[static_cast<int>(l)][0]);
    }
    const Tri r = tri_of(eval_cell(*expr.rhs, sources, pool));
    return cell_of(is_and ? kAnd3[static_cast<int>(l)][static_cast<int>(r)]
                          : kOr3[static_cast<int>(l)][static_cast<int>(r)]);
  }

  // Comparisons and arithmetic share one NULL rule: NULL in, NULL out.
  const Cell l = eval_cell(*expr.lhs, sources, pool);
  const Cell r = eval_cell(*expr.rhs, sources, pool);
  if (binary_result_is_null(l.null, r.null)) return Cell::null_cell();

  switch (expr.bop) {
    case BinaryOp::kEq:
      if (l.kind == TypeKind::kVarchar) return Cell::of_bool(l.s == r.s);
      return Cell::of_bool(compare_cells(l, r, pool) == 0);
    case BinaryOp::kNe:
      if (l.kind == TypeKind::kVarchar) return Cell::of_bool(l.s != r.s);
      return Cell::of_bool(compare_cells(l, r, pool) != 0);
    case BinaryOp::kLt:
      return Cell::of_bool(compare_cells(l, r, pool) < 0);
    case BinaryOp::kLe:
      return Cell::of_bool(compare_cells(l, r, pool) <= 0);
    case BinaryOp::kGt:
      return Cell::of_bool(compare_cells(l, r, pool) > 0);
    case BinaryOp::kGe:
      return Cell::of_bool(compare_cells(l, r, pool) >= 0);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (expr.type.kind == TypeKind::kInt64) {
        const std::int64_t x = l.i;
        const std::int64_t y = r.i;
        switch (expr.bop) {
          case BinaryOp::kAdd:
            return Cell::of_int64(wrap_add(x, y));
          case BinaryOp::kSub:
            return Cell::of_int64(wrap_sub(x, y));
          case BinaryOp::kMul:
            return Cell::of_int64(wrap_mul(x, y));
          default:
            GEMS_UNREACHABLE("int division is typed double");
        }
      }
      const double x = l.kind == TypeKind::kDouble ? l.d
                                                   : static_cast<double>(l.i);
      const double y = r.kind == TypeKind::kDouble ? r.d
                                                   : static_cast<double>(r.i);
      switch (expr.bop) {
        case BinaryOp::kAdd:
          return Cell::of_double(x + y);
        case BinaryOp::kSub:
          return Cell::of_double(x - y);
        case BinaryOp::kMul:
          return Cell::of_double(x * y);
        case BinaryOp::kDiv:
          if (y == 0.0) return Cell::null_cell();  // SQL: division by zero
          return Cell::of_double(x / y);
        default:
          break;
      }
      GEMS_UNREACHABLE("bad arithmetic op");
    }
    default:
      GEMS_UNREACHABLE("logical ops handled above");
  }
}

}  // namespace

Cell eval_cell(const BoundExpr& expr, std::span<const RowCursor> sources,
               const StringPool& pool) {
  switch (expr.kind) {
    case BoundExpr::Kind::kConst:
      return expr.constant;
    case BoundExpr::Kind::kColumnRef:
      return load_column(expr.slot, sources);
    case BoundExpr::Kind::kUnary: {
      const Cell v = eval_cell(*expr.lhs, sources, pool);
      if (expr.uop == UnaryOp::kNot) {
        return cell_of(kNot3[static_cast<int>(tri_of(v))]);
      }
      if (v.null) return Cell::null_cell();
      if (v.kind == TypeKind::kDouble) return Cell::of_double(-v.d);
      return Cell::of_int64(wrap_neg(v.i));
    }
    case BoundExpr::Kind::kBinary:
      return eval_binary(expr, sources, pool);
  }
  GEMS_UNREACHABLE("bad bound expr kind");
}

}  // namespace gems::relational
