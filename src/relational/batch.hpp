// Fixed-width value batches for the vectorized relational engine.
//
// The columnar Column/Table layout stores attributes contiguously; this
// layer makes execution match the storage: operators process windows of
// kBatchRows rows at a time instead of dispatching the BoundExpr
// interpreter once per row. A batch is either a contiguous row window of
// one source table or a gather list (the materialized form of a selection
// vector); typed value vectors view column chunks directly when the window
// is contiguous and lies in one chunk, and copy lanes when it does not.
// Validity travels as packed 64-bit words (the DynamicBitset word layout),
// so NULL propagation is a handful of bitwise ops per 64 rows.
//
// Conventions:
//  * valid word bit i set  <=> lane i is non-null.
//  * Bool vectors carry their values as bit-words too (bit set = true),
//    with the invariant value ⊆ valid; numeric/varchar vectors carry
//    lanes. This makes and/or/not and selection-vector production pure
//    word arithmetic (see null_semantics.hpp for the formulas).
//  * Bits at or past the batch size are zero in every word array.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "common/lane_codec.hpp"
#include "relational/bound_expr.hpp"
#include "storage/table.hpp"

namespace gems::relational {

/// Fixed batch width. 1024 rows = 8 KiB per int64/double lane array —
/// three live vectors per kernel node stay L1/L2-resident.
/// Equal to the storage chunk width, so an aligned batch window lies in one
/// chunk of every column and is read in place.
inline constexpr std::size_t kBatchRows = kChunkRows;
inline constexpr std::size_t kBatchWords = kBatchRows / 64;

/// One evaluation window over a single source table. rows == nullptr
/// means the contiguous window [base, base + size); otherwise `rows`
/// lists `size` gathered row indices (ascending for operator inputs, but
/// kernels do not rely on order).
struct RowBatch {
  const storage::Table* table = nullptr;
  storage::RowIndex base = 0;
  const storage::RowIndex* rows = nullptr;
  std::size_t size = 0;

  storage::RowIndex row_at(std::size_t i) const noexcept {
    return rows != nullptr ? rows[i]
                           : base + static_cast<storage::RowIndex>(i);
  }
  bool contiguous() const noexcept { return rows == nullptr; }
};

/// Backing storage for one kernel node's output (see vector_eval.hpp).
/// Lane vectors are allocated on first use and retained across batches.
struct VectorBuf {
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<StringId> str;
  std::array<std::uint64_t, kBatchWords> bits{};
  std::array<std::uint64_t, kBatchWords> valid{};

  std::int64_t* i64_lanes() {
    if (i64.size() < kBatchRows) i64.resize(kBatchRows);
    return i64.data();
  }
  double* f64_lanes() {
    if (f64.size() < kBatchRows) f64.resize(kBatchRows);
    return f64.data();
  }
};

/// Non-owning typed view of one evaluated vector. Exactly one of the lane
/// pointers (or `bits`, for Bool) is populated, per `kind`; `valid` is
/// always populated.
struct ValueVector {
  storage::TypeKind kind = storage::TypeKind::kInt64;
  const std::int64_t* i64 = nullptr;  // Int64 / Date lanes
  const double* f64 = nullptr;        // Double lanes
  const StringId* str = nullptr;      // Varchar lanes
  const std::uint64_t* bits = nullptr;   // Bool values (bit set = true)
  const std::uint64_t* valid = nullptr;  // bit set = non-null
};

/// Number of validity/value words covering `n` lanes.
inline constexpr std::size_t batch_words(std::size_t n) noexcept {
  return (n + 63) / 64;
}

/// Zeroes any bits at or past `n` in the final covering word.
inline void clear_tail_bits(std::uint64_t* words, std::size_t n) noexcept {
  if (n % 64 != 0) words[n / 64] &= (1ull << (n % 64)) - 1;
}

/// Copies the batch's validity window of `column` into batch-local words
/// (bit i = row_at(i) non-null), tail bits cleared.
void gather_valid_words(const storage::Column& column, const RowBatch& batch,
                        std::uint64_t* out);

/// Sets the first `n` lane bits (all-valid / all-true mask).
inline void fill_ones_words(std::uint64_t* words, std::size_t n) noexcept {
  const std::size_t nw = batch_words(n);
  for (std::size_t w = 0; w < nw; ++w) words[w] = ~0ull;
  clear_tail_bits(words, n);
}

/// Calls fn(lane) for every set bit among the first `n` lanes.
template <typename Fn>
inline void for_each_lane(const std::uint64_t* words, std::size_t n,
                          Fn&& fn) {
  const std::size_t nw = batch_words(n);
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      fn(w * 64 + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
}

}  // namespace gems::relational
