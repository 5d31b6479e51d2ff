#include "common/bitset.hpp"

#include <bit>

namespace gems {

void DynamicBitset::resize(std::size_t size, bool value) {
  const std::size_t old_size = size_;
  size_ = size;
  words_.resize((size + 63) / 64, value ? ~0ull : 0ull);
  if (value && old_size < size && old_size % 64 != 0) {
    // Fill the tail of the word that straddled the old boundary.
    words_[old_size >> 6] |= ~((1ull << (old_size % 64)) - 1);
  }
  clear_trailing();
}

void DynamicBitset::set_all() noexcept {
  for (auto& w : words_) w = ~0ull;
  clear_trailing();
}

void DynamicBitset::reset_all() noexcept {
  for (auto& w : words_) w = 0;
}

std::size_t DynamicBitset::count() const noexcept {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool DynamicBitset::any() const noexcept {
  for (auto w : words_) {
    if (w != 0) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) noexcept {
  GEMS_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) noexcept {
  GEMS_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

bool DynamicBitset::intersect_changed(const DynamicBitset& other) noexcept {
  GEMS_DCHECK(size_ == other.size_);
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t next = words_[i] & other.words_[i];
    diff |= words_[i] ^ next;
    words_[i] = next;
  }
  return diff != 0;
}

DynamicBitset& DynamicBitset::subtract(const DynamicBitset& other) noexcept {
  GEMS_DCHECK(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

Result<DynamicBitset> DynamicBitset::from_words(
    std::size_t size, std::vector<std::uint64_t> words) {
  if (words.size() != (size + 63) / 64) {
    return invalid_argument("bitset word count " +
                            std::to_string(words.size()) +
                            " does not match size " + std::to_string(size));
  }
  if (size % 64 != 0 && !words.empty() &&
      (words.back() & ~((1ull << (size % 64)) - 1)) != 0) {
    return invalid_argument("bitset has bits set past its size");
  }
  DynamicBitset out;
  out.size_ = size;
  out.words_ = std::move(words);
  return out;
}

std::vector<std::uint32_t> DynamicBitset::to_indices() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
  return out;
}

}  // namespace gems
