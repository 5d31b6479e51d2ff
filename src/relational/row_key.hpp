// Row-key identity for every key grouping: GROUP BY, DISTINCT, the edge
// build's hashed attach (relational::group_rows builds all three) and the
// vertex key index. Two keys are equal iff they have as many cells and
// each pair of cells is equal: both NULL, or both non-NULL with equal
// values under the column's type, where -0.0 equals +0.0, other doubles
// compare by bit pattern (so a NaN equals a NaN of the same bits), and
// strings compare by interned id, which the shared StringPool makes
// equivalent to string equality. hash_row_key and row_keys_equal decide it
// for rows of tables, and their cell-wise forms (hash_cell_key over
// KeyCell spans, cell_key_equals) for a key whose cells come from several
// tables.
//
// A key has one hash, whichever form computes it: hash_row_key over a
// row, hash_cell_key over its cells and hash_key_cells over its
// key_cells_batch cells agree, so an index built with one form is probed
// with another (group_rows builds with the batch form, the hashed attach
// probes with hash_cell_key).
//
// Key hashes go through the 64-bit MurmurHash3 finalizer (common/hash.hpp)
// because std-hasher combining diffuses the low-entropy payloads (dense
// interned ids, small integers) poorly and skews bucket occupancy.
#pragma once

#include <cstdint>
#include <span>

#include "storage/table.hpp"

namespace gems::relational {

/// 64-bit key hash of one row. Equal keys hash equal; exact equality is
/// decided by row_keys_equal.
std::uint64_t hash_row_key(const storage::Table& table,
                           storage::RowIndex row,
                           std::span<const storage::ColumnIndex> cols);

/// One cell of a key: row `row` of `column`. A key whose cells come from
/// several tables (the probe side of an edge join) is a span of these.
struct KeyCell {
  const storage::Column* column = nullptr;
  storage::RowIndex row = 0;
};

/// hash_row_key over cells: equal to hash_row_key(table, row, cols) when
/// cell i is row `row` of table.column(cols[i]).
std::uint64_t hash_cell_key(std::span<const KeyCell> cells);

/// row_keys_equal with a cell-wise left side: true iff cell i equals row
/// `row` of table.column(cols[i]) for every i.
bool cell_key_equals(std::span<const KeyCell> cells,
                     const storage::Table& table, storage::RowIndex row,
                     std::span<const storage::ColumnIndex> cols);

/// Normalized key cells of one column: bits[i] receives the normalized
/// payload of row `rows[i]` (or `base + i` when rows == nullptr — the
/// contiguous-window case) (0 when NULL, -0.0 collapsed, strings as
/// interned ids) and nulls[i] the NULL flag.
/// Two cells are equal iff their (bits, null) pairs match, which lets a
/// grouping probe compare nine compact bytes per key column instead of
/// re-reading a previously seen row from the source columns (a cache miss
/// per probe once the table outgrows cache).
void key_cells_batch(const storage::Table& table, storage::RowIndex base,
                     const storage::RowIndex* rows, std::size_t n,
                     storage::ColumnIndex col,
                     std::uint64_t* bits, std::uint8_t* nulls);

/// Key hashes from normalized cells (column-major, columns `stride`
/// apart): hashes[i] is exactly hash_row_key's value for the row the cells
/// came from, produced by a pure arithmetic sweep over the compact cell
/// arrays instead of a pass over source columns and validity bitmaps.
void hash_key_cells(const std::uint64_t* bits, const std::uint8_t* nulls,
                    std::size_t n, std::size_t ncols, std::size_t stride,
                    std::uint64_t* hashes);

/// Exact key equality: NULL == NULL, -0.0 collapsed into +0.0, doubles
/// otherwise by bit pattern, strings by interned id.
bool row_keys_equal(const storage::Table& a, storage::RowIndex row_a,
                    std::span<const storage::ColumnIndex> cols_a,
                    const storage::Table& b, storage::RowIndex row_b,
                    std::span<const storage::ColumnIndex> cols_b);

}  // namespace gems::relational
