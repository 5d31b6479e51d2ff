// Flat open-addressing index of 32-bit ids (DESIGN.md §5m).
//
// The table stores no keys. Each 8-byte slot holds a 32-bit hash tag and
// an id; the caller hashes its key and passes an equality check that
// compares the key against whatever an id stands for (the string pool's
// arena bytes, a vertex's representative row). Capacity is a power of
// two at least twice the entry count, probing is linear and nothing is
// ever deleted, so a probe ends at the first empty slot.
//
// A slot's tag also picks its home slot, so growing re-places every slot
// from its tag alone and never calls back into the caller's keys. The
// capacity is a function of the entry count only (the smallest power of
// two, at least kMinCapacity, holding it at load <= 1/2), however the
// entries arrived: one by one, or after a reserve.
//
// The slots come from a std::pmr resource: large_array_resource() unless
// the table is constructed with another, so a large slot array is mapped
// pages rather than a malloc block (DESIGN.md §5m). A copy, compacted()
// and merged() are on large_array_resource() too. A graph build fills a
// vertex key index reserved in its scratch arena and keeps its
// compacted() copy (DESIGN.md §5n).
#pragma once

#include <algorithm>
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
  /// kMinCapacity, that holds `n` at load <= 1/2.
  static std::size_t capacity_for(std::size_t n) noexcept {
    if (n == 0) return 0;
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * n) capacity *= 2;
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
    if (2 * n <= slots_.size()) return;
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
    for (std::size_t i = tag & mask; slots_[i].id != kNone;
         i = (i + 1) & mask) {
      if (slots_[i].tag == tag && equal(slots_[i].id)) return slots_[i].id;
    }
    return kNone;
  }

  /// Pulls the home slot of `hash` toward the cache ahead of a find() or
  /// insert(); a batch of probes calls it a few entries ahead.
  void prefetch(std::uint64_t hash) const noexcept {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[tag_of(hash) & (slots_.size() - 1)]);
    }
  }

  /// Stores `id` (never kNone) under `hash`. The caller has just seen
  /// find() miss: the table keeps no keys, so it cannot check that itself.
  void insert(std::uint64_t hash, std::uint32_t id) {
    GEMS_DCHECK(id != kNone);
    reserve(size_ + 1);
    const std::uint32_t tag = tag_of(hash);
    slots_[empty_slot(tag)] = Slot{tag, id};
    ++size_;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNone;
  };

  static std::uint32_t tag_of(std::uint64_t hash) noexcept {
    return static_cast<std::uint32_t>(hash >> 32) ^
           static_cast<std::uint32_t>(hash);
  }

  /// Re-places the occupied slots of `from` by their tags alone.
  template <typename Slots>
  void place(const Slots& from) noexcept {
    for (const Slot& s : from) {
      if (s.id != kNone) slots_[empty_slot(s.tag)] = s;
    }
  }

  std::size_t empty_slot(std::uint32_t tag) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    return i;
  }

  std::pmr::vector<Slot> slots_{large_array_resource()};
  std::size_t size_ = 0;
};

}  // namespace gems
