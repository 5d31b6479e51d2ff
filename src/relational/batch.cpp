#include "relational/batch.hpp"

namespace gems::relational {

void gather_valid_words(const storage::Column& column, const RowBatch& batch,
                        std::uint64_t* out) {
  const std::size_t n = batch.size;
  const std::size_t nw = batch_words(n);
  const std::size_t chunk = batch.base / kChunkRows;
  if (batch.contiguous() && n > 0 &&
      (batch.base + n - 1) / kChunkRows == chunk) {
    // Word-at-a-time shift-merge of the window's words inside its chunk;
    // aligned windows (base % 64 == 0, the common full-batch case)
    // degenerate to straight word copies.
    const std::span<const std::uint64_t> words = column.valid_words(chunk);
    const std::size_t base = batch.base % kChunkRows;
    const std::size_t offset = base % 64;
    const std::size_t w0 = base / 64;
    if (offset == 0) {
      for (std::size_t w = 0; w < nw; ++w) out[w] = words[w0 + w];
    } else {
      for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t word = words[w0 + w] >> offset;
        if (w0 + w + 1 < words.size()) {
          word |= words[w0 + w + 1] << (64 - offset);
        }
        out[w] = word;
      }
    }
  } else {
    // Gather lists, and contiguous windows that straddle a chunk boundary
    // (windows that start off a chunk boundary: filter_rows from a first
    // row, filter_rows_parallel's ranges).
    for (std::size_t w = 0; w < nw; ++w) out[w] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!column.is_null(batch.row_at(i))) out[i >> 6] |= 1ull << (i & 63);
    }
  }
  clear_tail_bits(out, n);
}

}  // namespace gems::relational
