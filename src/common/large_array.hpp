// Where arrays whose size grows with the data get their memory
// (DESIGN.md §5m, "Large arrays").
//
// glibc serves a request of its mmap threshold or more (128 KiB at start)
// with a mapping of its own, and returns it with munmap when it is freed.
// But freeing such a block also raises the threshold to the block's size,
// and the trim threshold to twice that, for the rest of the process. From
// then on large blocks come from the heap arenas, and a worker thread's
// arena keeps what it frees. A single freed pool index or CSR base is
// enough to lift the threshold to megabytes.
//
// The rule here keeps every large array away from malloc, so malloc never
// frees a mapped block and its thresholds stay at their floor:
// large_array_resource() maps a request of kPageMapBytes or more itself
// and unmaps it on deallocation; a smaller request goes to the heap.
// Nothing is tuned (no mallopt, malloc_trim or environment variable).
//
// This file also owns the anonymous-page helpers that ScratchArena maps
// its blocks with, so one place in the program maps anonymous memory.
#pragma once

#include <cstddef>
#include <memory_resource>

namespace gems {

/// Requests of this many bytes or more are mapped by the program itself:
/// glibc's default (and lowest) mmap threshold.
inline constexpr std::size_t kPageMapBytes = std::size_t{128} << 10;

/// Bytes per page; mappings are rounded up to it.
inline constexpr std::size_t kPageBytes = 4096;

/// `bytes` rounded up to whole pages.
constexpr std::size_t page_round_up(std::size_t bytes) noexcept {
  return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/// Maps page_round_up(bytes) bytes of zeroed anonymous memory; throws
/// std::bad_alloc when the system refuses.
void* map_pages(std::size_t bytes);

/// Unmaps a map_pages(bytes) block.
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// Gives the whole pages inside [p, p + bytes), part of a map_pages
/// block, back to the system; they stay mapped and read as zero when
/// touched again.
void release_pages(void* p, std::size_t bytes) noexcept;

/// The resource for arrays whose size grows with the data: the string
/// pool's index, vertex key indices, CSR arrays, staging lanes and
/// recovery images. Thread-safe; the same object for the whole process.
std::pmr::memory_resource* large_array_resource() noexcept;

/// Bytes large_array_resource() has mapped now (the
/// `memory.mapped.bytes` gauge).
std::size_t large_array_mapped_bytes() noexcept;

}  // namespace gems
