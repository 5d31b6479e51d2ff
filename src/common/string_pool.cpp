#include "common/string_pool.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>

#include "common/check.hpp"

namespace gems {

namespace {

std::uint64_t hash_string(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

}  // namespace

std::uint64_t StringPool::Strings::store(std::string_view s, StringId id) {
  if (s.size() > kBlockBytes) {
    // An allocation of its own; the current block's free tail stays in use.
    Oversized big{id, std::make_unique_for_overwrite<char[]>(s.size()),
                  s.size()};
    std::memcpy(big.chars.get(), s.data(), s.size());
    oversized_.push_back(std::move(big));
    arena_bytes_ += s.size();
    return end_;
  }
  if (s.empty()) return end_;
  if (s.size() > blocks_.size() * kBlockBytes - end_) {
    end_ = blocks_.size() * kBlockBytes;
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
    arena_bytes_ += kBlockBytes;
  }
  std::memcpy(blocks_.back().get() + end_ % kBlockBytes, s.data(), s.size());
  end_ += s.size();
  return end_;
}

void StringPool::Strings::seal() {
  GEMS_DCHECK(tail_.size() == kChunkRows);
  // End offsets never decrease, so the span is the last one's.
  const std::size_t width = lane_codec::span_width(tail_.back() - tail_base_);
  Chunk chunk{nullptr, tail_base_, width};
  if (width > 0) {
    chunk.lanes =
        std::make_unique_for_overwrite<unsigned char[]>(width * kChunkRows);
    lane_codec::narrow(tail_.data(), kChunkRows, tail_base_, width,
                       chunk.lanes.get());
  }
  sealed_.push_back(std::move(chunk));
  sealed_bytes_ += lane_codec::kHeaderBytes + width * kChunkRows;
  tail_base_ = tail_.back();
  tail_.clear();
}

void StringPool::Strings::append(std::string_view s) {
  const auto id = static_cast<StringId>(size());
  if (tail_.size() == kChunkRows) seal();
  tail_.push_back(store(s, id));
}

std::string_view StringPool::Strings::no_arena_view(StringId id) const {
  const auto big = std::lower_bound(
      oversized_.begin(), oversized_.end(), id,
      [](const Oversized& o, StringId want) { return o.id < want; });
  if (big != oversized_.end() && big->id == id) {
    return {big->chars.get(), big->size};
  }
  return std::string_view("", 0);
}

std::size_t StringPool::Strings::memory_bytes() const {
  return arena_bytes_ + blocks_.capacity() * sizeof(blocks_[0]) +
         oversized_.capacity() * sizeof(Oversized) + sealed_bytes_ +
         tail_.size() * sizeof(tail_[0]);
}

StringId StringPool::find_locked(std::string_view s,
                                 std::uint64_t hash) const {
  const Strings& strings = strings_;
  const StringId id = index_.find(
      hash, [&](StringId candidate) { return strings.view(candidate) == s; });
  return id == IdTable::kNone ? kInvalidStringId : id;
}

StringId StringPool::intern_locked(std::string_view s, std::uint64_t hash) {
  const StringId found = find_locked(s, hash);
  if (found != kInvalidStringId) return found;
  // The index caps itself at 2^31 entries, well below kInvalidStringId.
  const auto id = static_cast<StringId>(strings_.size());
  strings_.append(s);
  bytes_ += s.size();
  index_.insert(hash, id);
  return id;
}

StringId StringPool::intern(std::string_view s) {
  const std::uint64_t hash = hash_string(s);
  sync::MutexLock lock(mutex_);
  return intern_locked(s, hash);
}

void StringPool::intern_batch(std::span<const std::string_view> strings,
                              StringId* ids) {
  // Far enough ahead to hide a cache miss behind the probes in between.
  constexpr std::size_t kPrefetchAhead = 8;
  // On the stack: a heap buffer freed here would leave a hole below any
  // offsets chunk the batch seals.
  std::array<std::uint64_t, kChunkRows> hashes;
  for (std::size_t first = 0; first < strings.size(); first += kChunkRows) {
    const std::size_t n = std::min(kChunkRows, strings.size() - first);
    for (std::size_t i = 0; i < n; ++i) {
      hashes[i] = hash_string(strings[first + i]);
    }
    sync::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) index_.prefetch(hashes[i + kPrefetchAhead]);
      ids[first + i] = intern_locked(strings[first + i], hashes[i]);
    }
  }
}

StringId StringPool::find(std::string_view s) const {
  const std::uint64_t hash = hash_string(s);
  sync::MutexLock lock(mutex_);
  return find_locked(s, hash);
}

std::string_view StringPool::view(StringId id) const {
  sync::MutexLock lock(mutex_);
  return strings_.view(id);
}

void StringPool::view_batch(std::span<const StringId> ids,
                            std::string_view* out) const {
  sync::MutexLock lock(mutex_);
  const std::size_t n = strings_.size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out[i] = ids[i] < n ? strings_.view(ids[i]) : std::string_view();
  }
}

std::size_t StringPool::size() const {
  sync::MutexLock lock(mutex_);
  return strings_.size();
}

std::size_t StringPool::byte_size() const {
  sync::MutexLock lock(mutex_);
  return bytes_;
}

std::size_t StringPool::memory_bytes() const {
  sync::MutexLock lock(mutex_);
  return strings_.memory_bytes() + index_.byte_size();
}

}  // namespace gems
