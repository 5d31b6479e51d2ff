// Append-only string interning pool.
//
// GEMS stores varchar column data as 32-bit pool ids: equality comparisons
// and hash joins on string keys (the dominant operation in the Berlin
// schema, whose keys are all varchar) become integer operations, and each
// distinct string is stored once regardless of how many rows reference it.
// Ordering comparisons go back through the pool.
//
// Layout (DESIGN.md §5m): the characters live in fixed 64 KiB arena
// blocks that never move, packed in id order; a string that does not fit
// in the current block's free tail opens the next block, and a string
// longer than a block gets an allocation of its own outside the blocks.
// Each id keeps only the logical end offset of its characters (block
// index * kBlockBytes + offset in the block), in kChunkRows-id chunks that
// seal narrow through the lane codec columns use (common/lane_codec.hpp):
// about 2 bytes per id. A string starts where its predecessor ends, or at
// the start of the block holding its last byte, whichever is later. A
// flat IdTable maps a string's hash to its id, checking candidates
// against the arena bytes. No key is stored twice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/id_table.hpp"
#include "common/lane_codec.hpp"
#include "common/large_array.hpp"
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

  /// Resident bytes of the whole pool: arena blocks, per-id end offsets
  /// and the index (the `storage.pool.bytes` gauge). A function of the
  /// interned strings and their order alone.
  std::size_t memory_bytes() const;

  /// Calls `fn(id, string)` for every interned string in ascending id
  /// order, under one lock acquisition. The enumeration order is
  /// *deterministic* — ids are assigned densely in intern order and the
  /// offsets are indexed by id — which is what makes gems::store snapshots
  /// byte-reproducible: two snapshots of the same database state produce
  /// identical pool sections.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    sync::MutexLock lock(mutex_);
    for (std::size_t id = 0; id < strings_.size(); ++id) {
      fn(static_cast<StringId>(id), strings_.view(static_cast<StringId>(id)));
    }
  }

 private:
  /// The characters and the per-id end offsets, in id order. Its members
  /// take no lock: the pool guards the whole object with its mutex, and a
  /// lambda that runs under that lock reads it through a const reference
  /// bound outside the lambda (the analysis checks a lambda as a function
  /// of its own, holding nothing).
  class Strings {
   public:
    std::size_t size() const {
      return sealed_.size() * kChunkRows + tail_.size();
    }

    std::string_view view(StringId id) const {
      GEMS_DCHECK(id < size());
      const std::size_t c = id / kChunkRows;
      const std::size_t j = id % kChunkRows;
      // The predecessor's end offset and the id's.
      std::uint64_t start = 0;
      std::uint64_t end = 0;
      if (c < sealed_.size()) {
        const Chunk& chunk = sealed_[c];
        const unsigned char* lanes = chunk.lanes.get();
        start = chunk.base;
        if (j > 0) start += lane_codec::read(lanes, chunk.width, j - 1);
        end = chunk.base + lane_codec::read(lanes, chunk.width, j);
      } else {
        start = j == 0 ? tail_base_ : tail_[j - 1];
        end = tail_[j];
      }
      if (start == end) return no_arena_view(id);
      // A string that did not fit in its predecessor's block opened the
      // block that holds its last byte.
      start = std::max(start, (end - 1) / kBlockBytes * kBlockBytes);
      return {blocks_[start / kBlockBytes].get() + start % kBlockBytes,
              static_cast<std::size_t>(end - start)};
    }

    /// Stores `s` as the string of the next id, size().
    void append(std::string_view s);

    /// Arena blocks and oversized strings, the lists that hold them, the
    /// sealed chunks (kHeaderBytes and the lanes each, as a column chunk
    /// counts) and 8 bytes per open-chunk id.
    std::size_t memory_bytes() const;

   private:
    /// A sealed chunk of kChunkRows ids' end offsets: lane j holds the end
    /// offset of id (chunk * kChunkRows + j) minus `base`, the end offset
    /// of the id before the chunk's first.
    struct Chunk {
      std::unique_ptr<unsigned char[]> lanes;  // null for width 0
      std::uint64_t base;
      std::size_t width;
    };
    /// A string longer than a block, in an allocation of its own. It takes
    /// no arena bytes, so its id's end offset equals its predecessor's, as
    /// an empty string's does.
    struct Oversized {
      StringId id;
      std::unique_ptr<char[]> chars;
      std::size_t size;
    };

    /// The view of an id whose string takes no arena bytes: an oversized
    /// string, or the empty one.
    std::string_view no_arena_view(StringId id) const;
    /// Copies `s`, the string of new id `id`, into the arena and returns
    /// its end offset.
    std::uint64_t store(std::string_view s, StringId id);
    /// Encodes the full tail as a sealed chunk and empties the tail.
    void seal();

    // Shared arena blocks, by block index.
    std::vector<std::unique_ptr<char[]>> blocks_;
    // End offset of the last string in the blocks.
    std::uint64_t end_ = 0;
    std::size_t arena_bytes_ = 0;
    // Ascending id.
    std::vector<Oversized> oversized_;
    // On large_array_resource(): the table grows with the data.
    std::pmr::vector<Chunk> sealed_{large_array_resource()};
    std::size_t sealed_bytes_ = 0;
    // End offsets of the ids after the sealed chunks', and the end offset
    // before the first of them.
    std::vector<std::uint64_t> tail_;
    std::uint64_t tail_base_ = 0;
  };

  StringId find_locked(std::string_view s, std::uint64_t hash) const
      GEMS_REQUIRES(mutex_);
  StringId intern_locked(std::string_view s, std::uint64_t hash)
      GEMS_REQUIRES(mutex_);

  mutable sync::Mutex mutex_;
  Strings strings_ GEMS_GUARDED_BY(mutex_);
  IdTable index_ GEMS_GUARDED_BY(mutex_);
  std::size_t bytes_ GEMS_GUARDED_BY(mutex_) = 0;
};

}  // namespace gems
