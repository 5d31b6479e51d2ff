// Flat open-addressing index of 32-bit ids (DESIGN.md §5m).
//
// The table stores no keys. Each 8-byte slot holds a 32-bit hash tag and
// an id; the caller hashes its key and passes an equality check that
// compares the key against whatever an id stands for (the string pool's
// arena bytes, a vertex's representative row). Capacity is a power of
// two that keeps the table at most 7/8 full, and nothing is ever deleted.
//
// A slot's home is the top log2(capacity) bits of its tag, so homes rise
// with the tag. Probing is linear in Robin Hood order (Celis, 1986): an
// insert takes the first slot whose entry sits closer to its own home
// than the insert would, and the entries from there to the next empty
// slot move on by one, so along a run the homes never decrease. A probe
// ends at the first empty slot or at the first entry closer to its home
// than the probe is, which keeps a miss about as short as a hit at load
// 7/8. A hit then lies a few slots past its home more often than at it,
// so find() checks the first kNearSlots slots for its tag without a
// branch per slot.
//
// Growing re-places every slot from its tag alone and never calls back
// into the caller's keys. The capacity is a function of the entry count
// only (the smallest power of two, at least kMinCapacity, holding it at
// load <= 7/8), however the entries arrived: one by one, or after a
// reserve.
//
// The slots come from a std::pmr resource: large_array_resource() unless
// the table is constructed with another, so a large slot array is mapped
// pages rather than a malloc block (DESIGN.md §5m). A copy, compacted()
// and merged() are on large_array_resource() too. A graph build fills a
// vertex key index reserved in its scratch arena and keeps its
// compacted() copy (DESIGN.md §5n).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "common/check.hpp"
#include "common/large_array.hpp"

namespace gems {

class IdTable {
 public:
  /// Marks an empty slot, and is what find() returns for an absent key.
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kMinCapacity = 16;

  IdTable() = default;
  /// An empty table whose slots come from `memory`.
  explicit IdTable(std::pmr::memory_resource* memory) : slots_(memory) {}

  /// A copy on large_array_resource(), whatever `other`'s slots come from.
  IdTable(const IdTable& other)
      : slots_(other.slots_, large_array_resource()), size_(other.size_) {}
  IdTable& operator=(const IdTable&) = default;
  IdTable(IdTable&&) = default;
  IdTable& operator=(IdTable&&) = default;

  std::size_t size() const noexcept { return size_; }

  /// Bytes of slot storage: 8 per slot.
  std::size_t byte_size() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

  /// Slots of a table of `n` entries built one by one or reserved for
  /// exactly `n`: 0 for none, else the smallest power of two, at least
  /// kMinCapacity, that holds `n` at load <= 7/8.
  static std::size_t capacity_for(std::size_t n) noexcept {
    if (n == 0) return 0;
    std::size_t capacity = kMinCapacity;
    while (!holds(capacity, n)) capacity *= 2;
    return capacity;
  }

  /// byte_size() of such a table.
  static std::size_t byte_size_for(std::size_t n) noexcept {
    return capacity_for(n) * sizeof(Slot);
  }

  /// Grows, if needed, so that `n` entries fit.
  void reserve(std::size_t n) {
    GEMS_CHECK_MSG(n <= (std::size_t{1} << 31),
                   "id table exhausted 2^31 entries");
    if (holds(slots_.size(), n)) return;
    std::pmr::vector<Slot> old(capacity_for(n), Slot{},
                               slots_.get_allocator());
    old.swap(slots_);
    place(old);
  }

  /// A copy on large_array_resource() at the capacity that size() alone
  /// calls for, however far this table was reserved beyond it.
  IdTable compacted() const {
    IdTable out;
    out.reserve(size_);
    if (out.slots_.size() == slots_.size()) {
      std::copy(slots_.begin(), slots_.end(), out.slots_.begin());
    } else {
      out.place(slots_);
    }
    out.size_ = size_;
    return out;
  }

  /// One table on large_array_resource() holding the entries of `a` and `b`
  /// (which share no key), at the capacity their total calls for.
  static IdTable merged(const IdTable& a, const IdTable& b) {
    IdTable out;
    out.reserve(a.size_ + b.size_);
    out.place(a.slots_);
    out.place(b.slots_);
    out.size_ = a.size_ + b.size_;
    return out;
  }

  /// The id stored under `hash` for which `equal(id)` holds, or kNone.
  template <typename Equal>
  std::uint32_t find(std::uint64_t hash, Equal&& equal) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t tag = tag_of(hash);
    const std::size_t mask = slots_.size() - 1;
    const std::size_t start = home(tag);
    // A per-slot branch would mispredict on most hits (DESIGN.md §5m): the
    // first kNearSlots slots are compared into one mask instead.
    unsigned near = 0;
    for (std::size_t d = 0; d < kNearSlots; ++d) {
      const Slot& s = slots_[(start + d) & mask];
      near |= static_cast<unsigned>((s.tag == tag) & (s.id != kNone)) << d;
    }
    for (; near != 0; near &= near - 1) {
      const Slot& s =
          slots_[(start + static_cast<std::size_t>(std::countr_zero(near))) &
                 mask];
      if (equal(s.id)) return s.id;
    }
    for (std::size_t d = 0, i = start;; ++d, i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNone || displacement(s.tag, i) < d) return kNone;
      if (d >= kNearSlots && s.tag == tag && equal(s.id)) return s.id;
    }
  }

  /// Pulls the home slot of `hash` toward the cache ahead of a find() or
  /// insert(); a batch of probes calls it a few entries ahead.
  void prefetch(std::uint64_t hash) const noexcept {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[home(tag_of(hash))]);
    }
  }

  /// Stores `id` (never kNone) under `hash`. The caller has just seen
  /// find() miss: the table keeps no keys, so it cannot check that itself.
  void insert(std::uint64_t hash, std::uint32_t id) {
    GEMS_DCHECK(id != kNone);
    reserve(size_ + 1);
    place_one(Slot{tag_of(hash), id});
    ++size_;
  }

 private:
  friend class IdTableInspector;  // reads the slot layout in tests

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNone;
  };

  /// Slots past its home that find() checks for a hit without a branch
  /// per slot.
  static constexpr std::size_t kNearSlots = 4;

  static std::uint32_t tag_of(std::uint64_t hash) noexcept {
    return static_cast<std::uint32_t>(hash >> 32) ^
           static_cast<std::uint32_t>(hash);
  }

  /// Whether `capacity` slots hold `n` entries at load <= 7/8.
  static bool holds(std::size_t capacity, std::size_t n) noexcept {
    return 8 * n <= 7 * capacity;
  }

  /// The top log2(capacity) bits of `tag`.
  std::size_t home(std::uint32_t tag) const noexcept {
    return static_cast<std::size_t>((std::uint64_t{tag} * slots_.size()) >>
                                    32);
  }

  /// How far slot `i`, holding `tag`, sits past its home.
  std::size_t displacement(std::uint32_t tag, std::size_t i) const noexcept {
    return (i - home(tag)) & (slots_.size() - 1);
  }

  /// Re-places the occupied slots of `from` by their tags alone.
  template <typename Slots>
  void place(const Slots& from) noexcept {
    for (const Slot& s : from) {
      if (s.id != kNone) place_one(s);
    }
  }

  /// Robin Hood insertion: `s` takes the first slot that is empty or whose
  /// entry sits closer to its home than `s` would, and the entries from
  /// there to the next empty slot each move on by one.
  void place_one(Slot s) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(s.tag);
    for (std::size_t d = 0;
         slots_[i].id != kNone && displacement(slots_[i].tag, i) >= d; ++d) {
      i = (i + 1) & mask;
    }
    std::size_t hole = i;
    while (slots_[hole].id != kNone) hole = (hole + 1) & mask;
    for (; hole != i; hole = (hole - 1) & mask) {
      slots_[hole] = slots_[(hole - 1) & mask];
    }
    slots_[i] = s;
  }

  std::pmr::vector<Slot> slots_{large_array_resource()};
  std::size_t size_ = 0;
};

}  // namespace gems
