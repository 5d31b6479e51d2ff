// Tree-walking evaluator for bound expressions. Works over "row cursors":
// one (table, row) pair per source in the binding scope, so the same
// machinery evaluates single-table WHERE clauses and multi-step path
// conditions (where a condition may reference labeled earlier steps,
// paper Sec. II-B).
#pragma once

#include <span>

#include "common/string_pool.hpp"
#include "relational/bound_expr.hpp"
#include "storage/table.hpp"

namespace gems::relational {

struct RowCursor {
  const storage::Table* table = nullptr;
  storage::RowIndex row = 0;
};

/// Evaluates `expr` against `sources` (indexed by Slot::source).
/// NULL propagates SQL-style: comparisons/arithmetic on NULL yield NULL;
/// and/or use three-valued logic. `pool` is consulted only for string
/// ordering comparisons (equality uses interned ids).
Cell eval_cell(const BoundExpr& expr, std::span<const RowCursor> sources,
               const StringPool& pool);

/// Predicate evaluation: true iff the expression evaluates to non-null true.
inline bool eval_predicate(const BoundExpr& expr,
                           std::span<const RowCursor> sources,
                           const StringPool& pool) {
  return eval_cell(expr, sources, pool).truthy();
}

}  // namespace gems::relational
