// Transient memory for one type's share of a bulk build or for one
// table statement (DESIGN.md §5n).
//
// A full graph rebuild fans its types out over a thread pool, and the
// server runs table statements on several worker threads. Everything a
// type's build or a statement's operators need only while they run (join
// tuples, hash buckets, candidate rows, dedup sets, group ids, aggregate
// states, sort permutations, a key index while it grows) is allocated here
// rather than from malloc. Memory that a worker thread's malloc arena once
// held stays with that arena after it is freed, stranded between the
// long-lived arrays allocated around it, so scratch freed into four worker
// arenas would leave the process megabytes larger than the same work on
// one thread.
//
// The arena maps large anonymous blocks (map_pages, common/large_array.hpp)
// and carves allocations from them in order. Freeing the most recent
// allocation gives its bytes back to the block, so an array that is
// released and then allocated again larger (a hash table growing) reuses
// its pages. Freeing any other allocation of kPageMapBytes or more gives
// the whole pages inside it back to the system (release_pages), so a
// vector that grows by doubling keeps only its live array resident;
// smaller frees do nothing. Pages are only resident once touched, so
// reserving an upper bound costs address space, not memory. The destructor unmaps every block: the memory goes back to the
// system whole.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <vector>

namespace gems {

class ScratchArena final : public std::pmr::memory_resource {
 public:
  /// Smallest block mapped; larger requests get a block of their own.
  static constexpr std::size_t kBlockBytes = std::size_t{4} << 20;

  ScratchArena() = default;
  ~ScratchArena() override;

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bytes of the mapped blocks.
  std::size_t mapped_bytes() const noexcept;

  /// Bytes mapped by every arena alive in the process (the
  /// `memory.scratch.bytes` gauge).
  static std::size_t live_mapped_bytes() noexcept;

 private:
  struct Block {
    std::byte* base;
    std::size_t size;
  };

  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  void do_deallocate(void* p, std::size_t bytes, std::size_t) override;
  bool do_is_equal(const std::pmr::memory_resource& other) const
      noexcept override {
    return this == &other;
  }

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block being carved
  std::size_t offset_ = 0;   // bytes carved from blocks_[current_]
};

}  // namespace gems
