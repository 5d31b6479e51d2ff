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

std::string_view StringPool::store(std::string_view s) {
  if (s.empty()) return std::string_view("", 0);
  char* dst = nullptr;
  if (s.size() > kBlockBytes) {
    // A dedicated block; the shared block's free tail stays in use.
    blocks_.emplace_back(new char[s.size()]);
    arena_bytes_ += s.size();
    dst = blocks_.back().get();
  } else {
    if (s.size() > free_bytes_) {
      blocks_.emplace_back(new char[kBlockBytes]);
      arena_bytes_ += kBlockBytes;
      free_ = blocks_.back().get();
      free_bytes_ = kBlockBytes;
    }
    dst = free_;
    free_ += s.size();
    free_bytes_ -= s.size();
  }
  std::memcpy(dst, s.data(), s.size());
  return {dst, s.size()};
}

StringId StringPool::find_locked(std::string_view s,
                                 std::uint64_t hash) const {
  const ChunkedArray<std::string_view>& views = views_;
  const StringId id = index_.find(
      hash, [&](StringId candidate) { return views[candidate] == s; });
  return id == IdTable::kNone ? kInvalidStringId : id;
}

StringId StringPool::intern_locked(std::string_view s, std::uint64_t hash) {
  const StringId found = find_locked(s, hash);
  if (found != kInvalidStringId) return found;
  // The index caps itself at 2^31 entries, well below kInvalidStringId.
  const auto id = static_cast<StringId>(views_.size());
  views_.push_back(store(s));
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
  // views chunk the batch seals.
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
  GEMS_DCHECK(id < views_.size());
  return views_[id];
}

void StringPool::view_batch(std::span<const StringId> ids,
                            std::string_view* out) const {
  sync::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out[i] = ids[i] < views_.size() ? views_[ids[i]] : std::string_view();
  }
}

std::size_t StringPool::size() const {
  sync::MutexLock lock(mutex_);
  return views_.size();
}

std::size_t StringPool::byte_size() const {
  sync::MutexLock lock(mutex_);
  return bytes_;
}

std::size_t StringPool::memory_bytes() const {
  sync::MutexLock lock(mutex_);
  return arena_bytes_ + blocks_.capacity() * sizeof(blocks_[0]) +
         views_.byte_size() + index_.byte_size();
}

}  // namespace gems
