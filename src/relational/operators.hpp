// Relational operators — the complete surface of paper Table I:
// select (selection + projection), order by, group by, distinct,
// count/avg/min/max/sum, top n, and aliasing (handled by output names).
// Joins implement the edge-creation semantics of Eq. 2 and the implicit
// joins of many-to-one declarations (Figs. 4-5).
//
// All operators materialize new tables; intermediate results are the same
// Table type users query, which is what makes GraQL's "results as tables"
// composition (paper Sec. II-C1) free. An operator that takes a
// `memory` resource draws its temporary arrays (row lists, hash tables,
// group ids, aggregate states, sort permutations) from it; its output
// table is always on the heap. A table statement passes its ScratchArena
// (DESIGN.md §5n).
#pragma once

#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "relational/batch.hpp"
#include "relational/bound_expr.hpp"
#include "relational/expr_rules.hpp"
#include "storage/table.hpp"

namespace gems::relational {

using storage::ColumnIndex;
using storage::RowIndex;
using storage::Table;
using storage::TablePtr;

// ---- Selection ---------------------------------------------------------
//
// Expressions run through compiled kernels (vector_eval.hpp) over
// kBatchRows-row windows. Every expression handed to these operators is
// bound against a single-source TableScope, so it always compiles.

/// Row indices of `table` in [first_row, num_rows) satisfying `predicate`
/// (ascending order), in memory from `memory` (a graph build or a table
/// statement passes its scratch arena). A nonzero `first_row` filters
/// only appended rows.
std::pmr::vector<RowIndex> filter_rows(
    const Table& table, const BoundExpr& predicate, RowIndex first_row = 0,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// Copies `rows` × `cols` of `src` into a new table named `name`, keeping
/// the source column names unless `rename` provides one per output column.
TablePtr materialize(const Table& src, std::span<const RowIndex> rows,
                     std::span<const ColumnIndex> cols, std::string name,
                     const std::vector<std::string>* rename = nullptr);

// ---- Projection with computed expressions -------------------------------

struct OutputColumn {
  std::string name;  // output name (covers `as x` aliasing)
  BoundExprPtr expr;  // bound against a single-source TableScope
};

/// Evaluates each output expression for each listed row: expressions
/// compile to kernels once and evaluate per batch, appending whole lane
/// windows into the output columns.
TablePtr project(const Table& src, std::span<const RowIndex> rows,
                 std::span<const OutputColumn> outputs, std::string name);

// ---- Join ---------------------------------------------------------------

/// Equi-join row pairs: every (l, r) with left[l][left_keys] ==
/// right[r][right_keys]. Rows with NULL in any key never match (SQL
/// semantics). Key columns must be pairwise comparable (checked).
Result<std::vector<std::pair<RowIndex, RowIndex>>> hash_join_pairs(
    const Table& left, std::span<const ColumnIndex> left_keys,
    const Table& right, std::span<const ColumnIndex> right_keys);

struct JoinOutput {
  enum Side { kLeft, kRight } side;
  ColumnIndex column;
  std::string name;
};

/// Materializing equi-join.
Result<TablePtr> hash_join(const Table& left,
                           std::span<const ColumnIndex> left_keys,
                           const Table& right,
                           std::span<const ColumnIndex> right_keys,
                           std::span<const JoinOutput> outputs,
                           std::string name);

// ---- Aggregation ----------------------------------------------------------

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ColumnIndex input = 0;  // ignored for kCountStar
  std::string output_name;
};

/// GROUP BY `keys` with the given aggregates. With empty `keys`, produces
/// a single global-aggregate row (SQL scalar aggregation). NULLs are
/// skipped by every aggregate except count(*). Output schema: the key
/// columns (source names) followed by one column per aggregate.
/// Groups appear in first-encounter order (stable).
Result<TablePtr> group_by(
    const Table& src, std::span<const ColumnIndex> keys,
    std::span<const AggSpec> aggs, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

// ---- Ordering / dedup / top -----------------------------------------------

struct SortKey {
  ColumnIndex column;
  bool descending = false;
};

/// Stable-sorts `rows` of `src` by `keys`, with its temporary arrays from
/// `memory`. NULL sorts first and NaN after every number, ascending.
void sort_rows(const Table& src, std::span<RowIndex> rows,
               std::span<const SortKey> keys,
               std::pmr::memory_resource* memory);

/// Stable-sorted row permutation of `src`.
std::pmr::vector<RowIndex> sorted_indices(
    const Table& src, std::span<const SortKey> keys,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// Materializes `src` in sorted order.
TablePtr order_by(
    const Table& src, std::span<const SortKey> keys, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// Distinct rows (over all columns), first occurrence kept, input order.
TablePtr distinct(
    const Table& src, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

/// First `n` rows (paper's `top n`; callers sort first).
TablePtr head(
    const Table& src, std::size_t n, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

}  // namespace gems::relational
