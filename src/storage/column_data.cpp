#include "storage/column_data.hpp"

#include <limits>

namespace gems::storage {

namespace {

inline bool bit(const std::uint64_t* words, std::size_t i) noexcept {
  return (words[i / 64] >> (i % 64)) & 1u;
}

}  // namespace

template <typename T>
void ColumnData<T>::copy_to(std::size_t begin, std::size_t n,
                            T* out) const noexcept {
  GEMS_DCHECK(begin + n <= size());
  for (std::size_t i = begin; i < begin + n;) {
    const std::size_t c = i / kChunkRows;
    const std::size_t j = i % kChunkRows;
    const std::size_t k = std::min(begin + n - i, kChunkRows - j);
    i += k;
    if (c == sealed_.size()) {
      std::memcpy(out, tail_.data() + j, k * sizeof(T));
      out += k;
      continue;
    }
    const Sealed& s = sealed_[c];
    if (s.width == sizeof(T)) {
      std::memcpy(out, s.lanes + j * sizeof(T), k * sizeof(T));
      out += k;
      continue;
    }
    if constexpr (!std::is_same_v<T, double>) {
      lane_codec::widen(s.lanes, s.width, s.base, j, k, out);
      if (s.has_null()) {
        for (std::size_t m = 0; m < k; ++m) {
          out[m] = bit(s.valid, j + m) ? out[m] : kNullPayload;
        }
      }
    }
    out += k;
  }
}

template <typename T>
std::size_t ColumnData<T>::tail_room(std::size_t n) {
  if (tail_.size() == kChunkRows) seal();
  const std::size_t at = tail_.size();
  const std::size_t k = std::min(n, kChunkRows - at);
  if (at + k > tail_.capacity()) {
    tail_.reserve(std::min(kChunkRows, std::max(at + k, 2 * tail_.capacity())));
  }
  return k;
}

template <typename T>
void ColumnData<T>::append(const T* p, std::size_t n,
                           const std::uint64_t* valid) {
  GEMS_CHECK(n == 0 || valid != nullptr);
  GEMS_CHECK(size() % 64 == 0);
  while (n > 0) {
    const std::size_t k = tail_room(n);
    const std::size_t at = tail_.size();
    tail_.insert(tail_.end(), p, p + k);
    std::copy(valid, valid + (k + 63) / 64, &tail_valid_[at / 64]);
    for (std::size_t i = 0; i < k; ++i) {
      if (!bit(valid, i)) tail_[at + i] = kNullPayload;
    }
    valid += k / 64;  // k is a multiple of 64 unless it ends the input
    p += k;
    n -= k;
  }
}

template <typename T>
void ColumnData<T>::append(const T* p, std::size_t n) {
  while (n > 0) {
    const std::size_t k = tail_room(n);
    const std::size_t at = tail_.size();
    tail_.insert(tail_.end(), p, p + k);
    for (std::size_t i = at; i < at + k;) {
      const std::size_t bits = std::min(64 - i % 64, at + k - i);
      tail_valid_[i / 64] |= (~std::uint64_t{0} >> (64 - bits)) << (i % 64);
      i += bits;
    }
    p += k;
    n -= k;
  }
}

template <typename T>
void ColumnData<T>::seal() {
  GEMS_DCHECK(tail_.size() == kChunkRows);
  const bool has_null =
      std::any_of(tail_valid_.begin(), tail_valid_.end(),
                  [](std::uint64_t w) { return w != ~std::uint64_t{0}; });
  std::size_t width = sizeof(T);
  std::uint64_t base = 0;
  if constexpr (!std::is_same_v<T, double>) {
    // The span of the valid rows, in unsigned arithmetic so that
    // INT64_MIN..INT64_MAX is 2^64 - 1 and not an overflow.
    T lo = std::numeric_limits<T>::max();
    T hi = std::numeric_limits<T>::lowest();
    for (std::size_t i = 0; i < kChunkRows; ++i) {
      if (has_null && !bit(tail_valid_.data(), i)) continue;
      lo = std::min(lo, tail_[i]);
      hi = std::max(hi, tail_[i]);
    }
    if (lo > hi) {  // no valid row
      width = 0;
    } else {
      const std::uint64_t span =
          static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
      width = lane_codec::span_width(span);
      if (width < sizeof(T)) base = static_cast<std::uint64_t>(lo);
    }
    width = std::min(width, sizeof(T));
  }
  const std::size_t valid_words = has_null ? kWords : 0;
  const std::size_t words =
      valid_words + width * kChunkRows / sizeof(std::uint64_t);
  std::shared_ptr<std::uint64_t[]> chunk =
      std::make_shared_for_overwrite<std::uint64_t[]>(words);
  std::copy_n(tail_valid_.data(), valid_words, chunk.get());
  unsigned char* lanes =
      reinterpret_cast<unsigned char*>(chunk.get() + valid_words);
  if (width == sizeof(T)) {
    std::memcpy(lanes, tail_.data(), kChunkRows * sizeof(T));
  } else if constexpr (!std::is_same_v<T, double>) {
    lane_codec::narrow(tail_.data(), kChunkRows, base, width, lanes);
  }
  const std::uint64_t* valid = has_null ? chunk.get() : kAllValid.data();
  sealed_.push_back({std::move(chunk), valid, lanes, base, width});
  sealed_bytes_ += lane_codec::kHeaderBytes + words * sizeof(std::uint64_t);
  tail_.clear();
  tail_valid_ = {};
}

template class ColumnData<std::int64_t>;
template class ColumnData<double>;
template class ColumnData<StringId>;

}  // namespace gems::storage
