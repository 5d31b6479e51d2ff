// A column's payload: its values and their validity bits, in kChunkRows-row
// chunks (DESIGN.md §5n "Column chunks").
//
// Row i lives in chunk i / kChunkRows at lane i % kChunkRows. Every chunk
// but the last is sealed: full, held by shared_ptr<const>, never written
// again and shared by every copy of the column, so an MVCC clone costs
// O(kChunkRows + chunks). The last chunk, the tail, is owned by this column
// alone and holds plain lanes and validity words; it grows geometrically up
// to kChunkRows rows and is sealed when the next row arrives.
//
// A chunk is encoded once, when it seals, and never on a read. It is one
// allocation of 64-bit words: kWords validity words, only when the chunk
// holds a NULL, then kChunkRows lanes of `width` bytes. Its header, the
// width and the base (the minimum over the valid rows, 0 when none), sits
// beside the allocation's pointer in the column's chunk table, with the
// decoded addresses of the words and lanes: a row read loads one table
// entry and then its lane, as a plain array read loads the chunk pointer
// and then its element.
//
// Width 0 stores no lanes: every valid row equals the base. Widths 1, 2 and
// 4 (below sizeof(T)) store value − base. Width sizeof(T) stores the values
// themselves: the full-width form is the plain one, and window() reads it in
// place. Double chunks are always full width. A chunk without a NULL keeps
// no validity words; it reads a shared all-ones array instead.
//
// Readers see the plain bytes: a NULL row reads back as kNullPayload (0,
// 0.0 or kInvalidStringId), the payload every append stores for it, and
// copy_to() widens any range into a caller's buffer.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/lane_codec.hpp"
#include "common/string_pool.hpp"

namespace gems::storage {

template <typename T>
class ColumnData {
  static_assert(std::is_same_v<T, std::int64_t> || std::is_same_v<T, double> ||
                std::is_same_v<T, StringId>);

 public:
  /// Validity words per chunk.
  static constexpr std::size_t kWords = kChunkRows / 64;
  /// What a NULL row stores and reads back as.
  static constexpr T kNullPayload =
      std::is_same_v<T, StringId> ? static_cast<T>(kInvalidStringId) : T{};

  std::size_t size() const noexcept {
    return sealed_.size() * kChunkRows + tail_.size();
  }
  /// Chunks, sealed ones first; the tail counts when it is non-empty.
  std::size_t num_chunks() const noexcept {
    return sealed_.size() + (tail_.empty() ? 0 : 1);
  }
  std::size_t num_sealed_chunks() const noexcept { return sealed_.size(); }

  // ---- Row reads ---------------------------------------------------------
  T operator[](std::size_t i) const noexcept {
    GEMS_DCHECK(i < size());
    const std::size_t c = i / kChunkRows;
    if (c == sealed_.size()) return tail_[i % kChunkRows];
    return sealed_[c].value(i % kChunkRows);
  }

  bool valid(std::size_t i) const noexcept {
    GEMS_DCHECK(i < size());
    const std::size_t c = i / kChunkRows;
    const std::uint64_t* words =
        c == sealed_.size() ? tail_valid_.data() : sealed_[c].valid;
    const std::size_t j = i % kChunkRows;
    return (words[j / 64] >> (j % 64)) & 1u;
  }

  /// Validity words of chunk `c`: bit j of word w is row
  /// c * kChunkRows + w * 64 + j. The tail's span covers its rows only, and
  /// its bits past size() are zero, so the spans of all chunks concatenate
  /// to the packed bitmap of the whole column.
  std::span<const std::uint64_t> valid_words(std::size_t c) const noexcept {
    GEMS_DCHECK(c < num_chunks());
    if (c == sealed_.size()) {
      return {tail_valid_.data(), (tail_.size() + 63) / 64};
    }
    return {sealed_[c].valid, kWords};
  }

  // ---- Range reads -------------------------------------------------------
  /// Pointer to rows [begin, begin + n) when they lie in one full-width
  /// chunk or in the tail, nullptr otherwise (a narrow chunk, or a window
  /// across a chunk boundary).
  const T* window(std::size_t begin, std::size_t n) const noexcept {
    GEMS_DCHECK(begin + n <= size());
    const std::size_t c = begin / kChunkRows;
    if (n == 0 || (begin + n - 1) / kChunkRows != c) return nullptr;
    if (c == sealed_.size()) return tail_.data() + begin % kChunkRows;
    const Sealed& s = sealed_[c];
    if (s.width != sizeof(T)) return nullptr;
    return reinterpret_cast<const T*>(s.lanes) + begin % kChunkRows;
  }

  /// Writes rows [begin, begin + n) to out[0, n), widened to T, with NULL
  /// rows as kNullPayload.
  void copy_to(std::size_t begin, std::size_t n, T* out) const noexcept;

  /// window(begin, n) when it exists, else the rows copied into `scratch`
  /// (room for n).
  const T* lanes(std::size_t begin, std::size_t n, T* scratch) const noexcept {
    if (const T* in_place = window(begin, n)) return in_place;
    copy_to(begin, n, scratch);
    return scratch;
  }

  /// Calls fn(span, offset) for each chunk-contiguous piece of rows
  /// [begin, end), in order; `offset` is the piece's first row minus
  /// `begin`. Narrow chunks are widened into a buffer on the stack.
  template <typename Fn>
  void for_each_piece(std::size_t begin, std::size_t end, Fn&& fn) const {
    GEMS_DCHECK(begin <= end && end <= size());
    std::array<T, kChunkRows> buf;
    for (std::size_t i = begin; i < end;) {
      const std::size_t k = std::min(end - i, kChunkRows - i % kChunkRows);
      fn(std::span<const T>(lanes(i, k, buf.data()), k), i - begin);
      i += k;
    }
  }

  /// Bytes per lane of chunk `c`: 0, 1, 2, 4 or sizeof(T); the tail is
  /// sizeof(T).
  std::size_t lane_bytes(std::size_t c) const noexcept {
    GEMS_DCHECK(c < num_chunks());
    return c == sealed_.size() ? sizeof(T) : sealed_[c].width;
  }
  /// The allocation of sealed chunk `c`, which every copy shares.
  const void* chunk_address(std::size_t c) const noexcept {
    GEMS_DCHECK(c < sealed_.size());
    return sealed_[c].words.get();
  }

  /// Stored bytes: each sealed chunk's header (width and base, 16 bytes)
  /// and allocation (validity words when present, lanes), plus the tail's
  /// used lanes and validity words. A function of the contents alone, so
  /// columns of equal rows report the same size however they were built.
  std::size_t byte_size() const noexcept {
    return sealed_bytes_ + tail_.size() * sizeof(T) +
           (tail_.size() + 63) / 64 * sizeof(std::uint64_t);
  }

  // ---- Appending ---------------------------------------------------------
  /// Appends one row; a NULL row stores kNullPayload whatever `v` is.
  void push_back(T v, bool ok) {
    if (tail_.size() == kChunkRows) seal();
    if (tail_.size() == tail_.capacity()) {
      tail_.reserve(std::min(
          kChunkRows, std::max<std::size_t>(16, 2 * tail_.capacity())));
    }
    const std::size_t at = tail_.size();
    tail_valid_[at / 64] |= static_cast<std::uint64_t>(ok) << (at % 64);
    tail_.push_back(ok ? v : kNullPayload);
  }

  /// Appends `n` rows from `p`, whose validity is `valid` (row i is bit
  /// i % 64 of valid[i / 64], bits past n zero); size() must be a multiple
  /// of 64. NULL rows store kNullPayload, as push_back does.
  void append(const T* p, std::size_t n, const std::uint64_t* valid);

 private:
  static constexpr std::array<std::uint64_t, kWords> kAllValid = [] {
    std::array<std::uint64_t, kWords> words{};
    words.fill(~std::uint64_t{0});
    return words;
  }();

  /// A sealed chunk: its allocation and its header.
  struct Sealed {
    bool has_null() const noexcept { return valid != kAllValid.data(); }

    T value(std::size_t j) const noexcept {
      if (width == sizeof(T)) return lane_codec::load<T>(lanes, j);
      if (((valid[j / 64] >> (j % 64)) & 1u) == 0) return kNullPayload;
      return static_cast<T>(base + lane_codec::read(lanes, width, j));
    }

    std::shared_ptr<const std::uint64_t[]> words;
    const std::uint64_t* valid;  // into `words`, or kAllValid
    const unsigned char* lanes;  // into `words`
    std::uint64_t base;
    std::size_t width;
  };

  /// Encodes the full tail as a sealed chunk and empties the tail.
  void seal();

  std::vector<Sealed> sealed_;
  std::size_t sealed_bytes_ = 0;
  std::vector<T> tail_;
  // The tail's validity bits; bits past the tail's size are zero.
  std::array<std::uint64_t, kWords> tail_valid_{};
};

extern template class ColumnData<std::int64_t>;
extern template class ColumnData<double>;
extern template class ColumnData<StringId>;

}  // namespace gems::storage
