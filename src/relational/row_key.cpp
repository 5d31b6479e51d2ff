#include "relational/row_key.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/chunked_array.hpp"
#include "common/hash.hpp"

namespace gems::relational {

using storage::Column;
using storage::TypeKind;

namespace {

// Distinct seeds for a NULL part and a value part, so the two can never
// hash from the same inputs.
inline constexpr std::uint64_t kNullPartSeed = 0x9ae16a3b2f90404full;
inline constexpr std::uint64_t kValuePartSeed = 0xc2b2ae3d27d4eb4full;

/// A double key payload as raw 64 bits, -0.0 collapsed into +0.0.
inline std::uint64_t double_key_bits(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Value payload of one non-null cell as raw 64 bits, normalized: -0.0
/// collapsed into +0.0, strings as interned ids.
inline std::uint64_t key_part_bits(const Column& column,
                                   storage::RowIndex row) {
  switch (column.type().kind) {
    case TypeKind::kBool:
      return column.bool_at(row) ? 1u : 0u;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return static_cast<std::uint64_t>(column.int64_at(row));
    case TypeKind::kDouble:
      return double_key_bits(column.double_at(row));
    case TypeKind::kVarchar:
      return column.string_at(row);
  }
  GEMS_UNREACHABLE("bad column kind");
}

inline constexpr std::uint64_t kKeyHashSeed = 0x9e3779b97f4a7c15ull;

/// Folds one key cell into a running key hash.
inline std::uint64_t mix_key_part(std::uint64_t h, const Column& column,
                                  storage::RowIndex row) {
  return column.is_null(row)
             ? mix64(h ^ kNullPartSeed)
             : mix64(h ^ kValuePartSeed ^ key_part_bits(column, row));
}

/// Cell equality: both NULL, or both non-NULL with equal normalized
/// payloads. Comparing bits also makes a NaN equal a NaN of the same bit
/// pattern, which `==` on doubles would get wrong.
inline bool key_parts_equal(const Column& a, storage::RowIndex row_a,
                            const Column& b, storage::RowIndex row_b) {
  const bool na = a.is_null(row_a);
  if (na != b.is_null(row_b)) return false;
  return na || key_part_bits(a, row_a) == key_part_bits(b, row_b);
}

}  // namespace

std::uint64_t hash_row_key(const storage::Table& table,
                           storage::RowIndex row,
                           std::span<const storage::ColumnIndex> cols) {
  std::uint64_t h = kKeyHashSeed;
  for (const auto col : cols) h = mix_key_part(h, table.column(col), row);
  return h;
}

std::uint64_t hash_cell_key(std::span<const KeyCell> cells) {
  std::uint64_t h = kKeyHashSeed;
  for (const KeyCell& c : cells) h = mix_key_part(h, *c.column, c.row);
  return h;
}

bool cell_key_equals(std::span<const KeyCell> cells,
                     const storage::Table& table, storage::RowIndex row,
                     std::span<const storage::ColumnIndex> cols) {
  GEMS_DCHECK(cells.size() == cols.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!key_parts_equal(*cells[i].column, cells[i].row,
                         table.column(cols[i]), row)) {
      return false;
    }
  }
  return true;
}

void key_cells_batch(const storage::Table& table, storage::RowIndex base,
                     const storage::RowIndex* rows, std::size_t n,
                     storage::ColumnIndex col, std::uint64_t* bits,
                     std::uint8_t* nulls) {
  // Type dispatch hoisted out of the row loops. A row list reads its rows
  // one by one; a window reads the column chunks and their validity words
  // in place, one piece per chunk it touches.
  const auto fill = [&](const auto& data, auto to_bits) {
    if (rows != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const bool null = !data.valid(rows[i]);
        nulls[i] = null ? 1 : 0;
        bits[i] = null ? 0 : to_bits(data[rows[i]]);
      }
      return;
    }
    data.for_each_piece(base, base + n, [&](auto vals, std::size_t at) {
      const std::size_t first = base + at;
      const std::uint64_t* words = data.valid_words(first / kChunkRows).data();
      for (std::size_t i = 0; i < vals.size(); ++i) {
        const std::size_t j = first % kChunkRows + i;
        const bool null = ((words[j / 64] >> (j % 64)) & 1u) == 0;
        nulls[at + i] = null ? 1 : 0;
        bits[at + i] = null ? 0 : to_bits(vals[i]);
      }
    });
  };
  const Column& column = table.column(col);
  switch (column.type().kind) {
    case TypeKind::kBool:
      fill(column.int_chunks(),
           [](std::int64_t v) -> std::uint64_t { return v != 0 ? 1 : 0; });
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      fill(column.int_chunks(),
           [](std::int64_t v) { return static_cast<std::uint64_t>(v); });
      break;
    case TypeKind::kDouble:
      fill(column.double_chunks(), [](double v) { return double_key_bits(v); });
      break;
    case TypeKind::kVarchar:
      fill(column.string_chunks(),
           [](StringId v) -> std::uint64_t { return v; });
      break;
  }
}

void hash_key_cells(const std::uint64_t* bits, const std::uint8_t* nulls,
                    std::size_t n, std::size_t ncols, std::size_t stride,
                    std::uint64_t* hashes) {
  for (std::size_t i = 0; i < n; ++i) hashes[i] = kKeyHashSeed;
  for (std::size_t c = 0; c < ncols; ++c) {
    const std::uint64_t* b = bits + c * stride;
    const std::uint8_t* nl = nulls + c * stride;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t part =
          nl[i] != 0 ? kNullPartSeed : (kValuePartSeed ^ b[i]);
      hashes[i] = mix64(hashes[i] ^ part);
    }
  }
}

bool row_keys_equal(const storage::Table& a, storage::RowIndex row_a,
                    std::span<const storage::ColumnIndex> cols_a,
                    const storage::Table& b, storage::RowIndex row_b,
                    std::span<const storage::ColumnIndex> cols_b) {
  GEMS_DCHECK(cols_a.size() == cols_b.size());
  for (std::size_t i = 0; i < cols_a.size(); ++i) {
    if (!key_parts_equal(a.column(cols_a[i]), row_a, b.column(cols_b[i]),
                         row_b)) {
      return false;
    }
  }
  return true;
}

}  // namespace gems::relational
