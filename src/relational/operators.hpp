// Relational operators — the complete surface of paper Table I:
// select (selection + projection), order by, group by, distinct,
// count/avg/min/max/sum, top n, and aliasing (handled by output names).
// Joins implement the edge-creation semantics of Eq. 2 and the implicit
// joins of many-to-one declarations (Figs. 4-5).
//
// Results are the same Table type users query, which is what makes
// GraQL's "results as tables" composition (paper Sec. II-C1) free. Filter,
// distinct and order work on row lists (filter_rows, distinct_rows,
// sort_rows), so a table statement builds only its grouped table and its
// result: one materialize or project over the rows it keeps. An operator
// that takes a `memory` resource draws its temporary arrays (row lists,
// hash tables, group ids, aggregate states, sort permutations) from it;
// its output table is always on the heap. A table statement passes its
// ScratchArena (DESIGN.md §5n).
#pragma once

#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/id_table.hpp"
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

/// Rows [0, n) as a row list, in memory from `memory`.
std::pmr::vector<RowIndex> all_rows(
    std::size_t n,
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

// ---- Grouping ---------------------------------------------------------------

/// First-seen grouping of the `n` rows `rows` lists (rows [0, n) when
/// null) by `keys`, columns of `table`: the one hash index behind group
/// by, distinct and the edge build's hashed attach. Two rows share a group
/// iff their keys are equal under row_keys_equal, so a NULL cell matches
/// a NULL cell. `firsts` receives each group's first row, so group ids run
/// in first-seen order, and group_of_row[i], when non-null, the group of
/// the i-th listed row. Returns the index from a key's hash (hash_row_key,
/// or hash_cell_key over its cells) to its group. The index and every
/// temporary array come from `memory`.
IdTable group_rows(const Table& table, const RowIndex* rows, std::size_t n,
                   std::span<const ColumnIndex> keys,
                   std::uint32_t* group_of_row,
                   std::pmr::vector<RowIndex>& firsts,
                   std::pmr::memory_resource* memory);

// ---- Aggregation ----------------------------------------------------------

/// One aggregate of a table statement: `kind` over `input`, an expression
/// bound against a single-source TableScope (null for count(*)).
struct Aggregate {
  AggKind kind = AggKind::kCountStar;
  BoundExprPtr input;
  std::string output_name;
};

/// GROUP BY `keys`, columns of `src`, over the listed `rows` of `src`.
/// Key cells are read from `src` itself and each aggregate's input is
/// evaluated a batch of rows at a time, so no projected input table is
/// built. With empty `keys`, produces a single global-aggregate row (SQL
/// scalar aggregation). NULLs are skipped by every aggregate except
/// count(*). Output schema: one column per key, named k0, k1, ... by
/// position (a statement may group by one column twice), then one column
/// per aggregate. Groups appear in first-encounter order (stable), and
/// each aggregate adds its group's rows in `rows` order.
Result<TablePtr> group_by(
    const Table& src, std::span<const RowIndex> rows,
    std::span<const ColumnIndex> keys, std::span<const Aggregate> aggs,
    std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

// ---- Ordering / dedup / top -----------------------------------------------

struct SortKey {
  ColumnIndex column;
  bool descending = false;
};

/// sort_rows' limit for a statement without `top n`.
inline constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

/// Stable-sorts `rows` of `src` by `keys`, then keeps the first `limit`
/// (the paper's `top n`), with its temporary arrays from `memory`. Below
/// the row count only the kept rows are ordered (std::partial_sort); ties
/// break by position either way, so they are the full sort's first
/// `limit`. With no keys the order stays as it is. NULL sorts first and
/// NaN after every number, ascending.
void sort_rows(const Table& src, std::pmr::vector<RowIndex>& rows,
               std::span<const SortKey> keys,
               std::pmr::memory_resource* memory,
               std::size_t limit = kNoLimit);

/// The first row of each distinct combination of `cols`, ascending.
std::pmr::vector<RowIndex> distinct_rows(
    const Table& src, std::span<const ColumnIndex> cols,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource());

}  // namespace gems::relational
