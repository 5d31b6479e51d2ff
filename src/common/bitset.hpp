// Dynamic bitset used for null bitmaps, selection vectors and frontier
// sets in the path matcher. Word-level operations are the workhorse of the
// Eq. 5 culling fixpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"

namespace gems {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t size, bool value = false)
      : size_(size),
        words_((size + 63) / 64, value ? ~0ull : 0ull) {
    clear_trailing();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void resize(std::size_t size, bool value = false);

  bool test(std::size_t i) const noexcept {
    GEMS_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) noexcept {
    GEMS_DCHECK(i < size_);
    words_[i >> 6] |= 1ull << (i & 63);
  }

  void reset(std::size_t i) noexcept {
    GEMS_DCHECK(i < size_);
    words_[i >> 6] &= ~(1ull << (i & 63));
  }

  void assign(std::size_t i, bool value) noexcept {
    if (value) {
      set(i);
    } else {
      reset(i);
    }
  }

  void set_all() noexcept;
  void reset_all() noexcept;

  /// Number of set bits.
  std::size_t count() const noexcept;

  bool any() const noexcept;
  bool none() const noexcept { return !any(); }

  /// In-place intersection/union/difference; sizes must match.
  DynamicBitset& operator&=(const DynamicBitset& other) noexcept;
  DynamicBitset& operator|=(const DynamicBitset& other) noexcept;
  DynamicBitset& subtract(const DynamicBitset& other) noexcept;

  /// In-place AND that reports whether any bit changed, from the word
  /// compare of the same pass. Equivalent to comparing count() before and
  /// after `*this &= other`, without the two extra popcount passes — the
  /// matcher fixpoint runs this on every constraint of every pass.
  bool intersect_changed(const DynamicBitset& other) noexcept;

  bool operator==(const DynamicBitset& other) const noexcept = default;

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Number of backing 64-bit words. Word w covers bits [w*64, w*64+64).
  std::size_t num_words() const noexcept { return words_.size(); }

  /// Calls fn(index) for every set bit whose word index lies in
  /// [word_begin, word_end), ascending. `word_end` is clamped.
  template <typename Fn>
  void for_each_in_range(std::size_t word_begin, std::size_t word_end,
                         Fn&& fn) const {
    if (word_end > words_.size()) word_end = words_.size();
    for (std::size_t w = word_begin; w < word_end; ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Indices of all set bits.
  std::vector<std::uint32_t> to_indices() const;

  /// Raw 64-bit words (little-endian bit order within each word), for the
  /// snapshot serializer. Trailing bits past size() are guaranteed zero.
  std::span<const std::uint64_t> words() const noexcept {
    return {words_.data(), words_.size()};
  }

  /// Rebuilds a bitset from serialized words. Rejects a word count that
  /// does not match `size`, or set bits past `size` (corrupt input).
  static Result<DynamicBitset> from_words(std::size_t size,
                                          std::vector<std::uint64_t> words);

 private:
  void clear_trailing() noexcept {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ull << (size_ % 64)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gems
