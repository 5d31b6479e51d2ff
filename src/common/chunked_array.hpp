// Append-only array of fixed-size chunks whose full chunks are shared
// between copies (DESIGN.md §5n).
//
// Element i lives in chunk i / N at offset i % N. Every chunk but the last
// is sealed: it is full, held by shared_ptr<const>, and never written
// again. The last chunk, the tail, is owned by this array alone and grows
// geometrically up to N elements, so a tiny array stays tiny. A full tail
// is sealed when the next element arrives.
//
// Copying an array shares its sealed chunks and copies only the tail, so
// a copy costs O(N + chunks) whatever the length. An MVCC ingest copies a
// table, appends to the copy and publishes it, while readers pinned on the
// old epoch keep reading the original. Both read the same sealed chunks
// and neither writes them.
//
// Edge endpoint arrays and vertex representative rows use kChunkRows-row
// chunks, as storage columns do (storage/column_data.hpp, which adds
// validity bits and narrows each chunk when it seals).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/lane_codec.hpp"

namespace gems {

/// Calls fn(std::span<const T>) over consecutive kChunkRows pieces of the
/// identity array 0, 1, …, n - 1, written out one piece at a time into a
/// buffer on the stack: the form of an identity array that is not stored.
template <typename T, typename Fn>
void for_each_identity_piece(std::size_t n, Fn&& fn) {
  std::array<T, kChunkRows> piece;
  for (std::size_t first = 0; first < n; first += kChunkRows) {
    const std::size_t k = std::min(kChunkRows, n - first);
    for (std::size_t i = 0; i < k; ++i) piece[i] = static_cast<T>(first + i);
    fn(std::span<const T>(piece.data(), k));
  }
}

template <typename T, std::size_t N = kChunkRows>
class ChunkedArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  std::size_t size() const noexcept {
    return sealed_.size() * N + tail_.size();
  }

  const T& operator[](std::size_t i) const noexcept {
    GEMS_DCHECK(i < size());
    const std::size_t c = i / N;
    return c < sealed_.size() ? sealed_[c]->values[i % N] : tail_[i % N];
  }
  /// Bounds-checked element access.
  const T& at(std::size_t i) const {
    GEMS_CHECK_MSG(i < size(), "chunked array index out of range");
    return (*this)[i];
  }

  void push_back(const T& v) {
    make_room();
    tail_.push_back(v);
  }

  /// Appends `n` elements from `p`.
  void append(const T* p, std::size_t n) {
    while (n > 0) {
      make_room();
      const std::size_t at = tail_.size();
      const std::size_t k = std::min(n, N - at);
      if (at + k > tail_.capacity()) {
        tail_.reserve(std::min(N, std::max(at + k, 2 * tail_.capacity())));
      }
      tail_.insert(tail_.end(), p, p + k);
      p += k;
      n -= k;
    }
  }

  // ---- Per-chunk access ------------------------------------------------
  /// Chunks, sealed ones first; the tail counts when it is non-empty.
  std::size_t num_chunks() const noexcept {
    return sealed_.size() + (tail_.empty() ? 0 : 1);
  }
  /// The elements of chunk `c`: N of them, fewer in the tail.
  std::span<const T> chunk(std::size_t c) const noexcept {
    GEMS_DCHECK(c < num_chunks());
    if (c < sealed_.size()) return {sealed_[c]->values, N};
    return {tail_.data(), tail_.size()};
  }
  std::size_t num_sealed_chunks() const noexcept { return sealed_.size(); }

  /// Bytes of the elements: a function of size() alone, so arrays of the
  /// same contents report the same size however they were built.
  std::size_t byte_size() const noexcept { return size() * sizeof(T); }

  /// Equal elements.
  friend bool operator==(const ChunkedArray& a, const ChunkedArray& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t c = 0; c < a.num_chunks(); ++c) {
      const std::span<const T> x = a.chunk(c);
      const std::span<const T> y = b.chunk(c);
      if (x.data() != y.data() &&
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) != 0) {
        return false;
      }
    }
    return true;
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedArray* a, std::size_t i) : a_(a), i_(i) {}
    reference operator*() const { return (*a_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const ChunkedArray* a_ = nullptr;
    std::size_t i_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  struct Chunk {
    T values[N];
  };

  /// Seals a full tail and gives the tail room for one more element,
  /// doubling its capacity up to N.
  void make_room() {
    if (tail_.size() == N) {
      auto sealed = std::make_shared_for_overwrite<Chunk>();
      std::memcpy(sealed->values, tail_.data(), N * sizeof(T));
      sealed_.push_back(std::move(sealed));
      tail_.clear();
    }
    if (tail_.size() == tail_.capacity()) {
      tail_.reserve(
          std::min(N, std::max<std::size_t>(16, 2 * tail_.capacity())));
    }
  }

  std::vector<std::shared_ptr<const Chunk>> sealed_;
  std::vector<T> tail_;
};

}  // namespace gems
