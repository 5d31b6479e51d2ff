// Append-only string interning pool.
//
// GEMS stores varchar column data as 32-bit pool ids: equality comparisons
// and hash joins on string keys (the dominant operation in the Berlin
// schema, whose keys are all varchar) become integer operations, and each
// distinct string is stored once regardless of how many rows reference it.
// Ordering comparisons go back through the pool.
//
// Layout (DESIGN.md §5m): the characters live in fixed 64 KiB arena
// blocks that never move (a string longer than a block gets a block of
// its own), each id has one 16-byte view into them, and a flat IdTable
// maps a string's hash to its id, checking candidates against the arena
// bytes. No key is stored twice. The views are a ChunkedArray, so they
// grow without ever reallocating a large array.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/chunked_array.hpp"
#include "common/id_table.hpp"
#include "common/sync.hpp"

namespace gems {

/// Id of an interned string. Dense, starting at 0. kInvalid doubles as the
/// encoding of NULL in varchar columns.
using StringId = std::uint32_t;
inline constexpr StringId kInvalidStringId = 0xffffffffu;

/// Thread-safe append-only interner. Every member takes one mutex (hashing
/// happens before it); the views it hands out stay valid without it,
/// because arena blocks never move or shrink for the pool's lifetime.
class StringPool {
 public:
  /// Characters per shared arena block.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  StringPool() = default;

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Interns `s`, returning its id (existing or new).
  StringId intern(std::string_view s);

  /// Interns `strings[i]` into `ids[i]`, in order, under one lock
  /// acquisition per kChunkRows strings. Ids, size(), byte_size() and
  /// memory_bytes() come out as the same intern() calls in the same order
  /// would leave them (a repeat inside the batch gets the id its first
  /// occurrence got). The strings
  /// are hashed before the lock is taken, and each probe prefetches the
  /// index slot of a string a few entries ahead. Bulk appends pass up to
  /// kChunkRows strings per call (DESIGN.md §5m).
  void intern_batch(std::span<const std::string_view> strings,
                    StringId* ids);

  /// Returns the id of `s` if already interned, kInvalidStringId otherwise.
  /// Useful to prove a constant cannot match any row without scanning.
  StringId find(std::string_view s) const;

  /// Returns the string for a valid id. The view stays valid for the pool's
  /// lifetime (storage never relocates).
  std::string_view view(StringId id) const;

  /// view() of every id in `ids` into `out[i]`, under one lock
  /// acquisition. An id the pool never issued (kInvalidStringId in a NULL
  /// varchar cell) gives an empty view. Result encoders resolve a chunk of
  /// cells at a time with it.
  void view_batch(std::span<const StringId> ids, std::string_view* out) const;

  std::size_t size() const;

  /// Total bytes of interned character data (for catalog sizing stats).
  std::size_t byte_size() const;

  /// Resident bytes of the whole pool: arena blocks, per-id views and the
  /// index (the `storage.pool.bytes` gauge).
  std::size_t memory_bytes() const;

  /// Calls `fn(id, string)` for every interned string in ascending id
  /// order, under one lock acquisition. The enumeration order is
  /// *deterministic* — ids are assigned densely in intern order and the
  /// views are indexed by id — which is what makes gems::store snapshots
  /// byte-reproducible: two snapshots of the same database state produce
  /// identical pool sections.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    sync::MutexLock lock(mutex_);
    for (std::size_t id = 0; id < views_.size(); ++id) {
      fn(static_cast<StringId>(id), views_[id]);
    }
  }

 private:
  StringId find_locked(std::string_view s, std::uint64_t hash) const
      GEMS_REQUIRES(mutex_);
  StringId intern_locked(std::string_view s, std::uint64_t hash)
      GEMS_REQUIRES(mutex_);
  /// Copies `s` into the arena and returns the stable copy.
  std::string_view store(std::string_view s) GEMS_REQUIRES(mutex_);

  mutable sync::Mutex mutex_;
  std::vector<std::unique_ptr<char[]>> blocks_ GEMS_GUARDED_BY(mutex_);
  // Free tail of the current shared block.
  char* free_ GEMS_GUARDED_BY(mutex_) = nullptr;
  std::size_t free_bytes_ GEMS_GUARDED_BY(mutex_) = 0;
  std::size_t arena_bytes_ GEMS_GUARDED_BY(mutex_) = 0;
  ChunkedArray<std::string_view> views_ GEMS_GUARDED_BY(mutex_);  // by id
  IdTable index_ GEMS_GUARDED_BY(mutex_);
  std::size_t bytes_ GEMS_GUARDED_BY(mutex_) = 0;
};

}  // namespace gems
