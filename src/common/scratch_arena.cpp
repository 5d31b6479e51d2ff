#include "common/scratch_arena.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "common/large_array.hpp"

namespace gems {

namespace {

std::atomic<std::size_t> live_bytes{0};

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

}  // namespace

ScratchArena::~ScratchArena() {
  for (const Block& b : blocks_) unmap_pages(b.base, b.size);
  live_bytes.fetch_sub(mapped_bytes(), std::memory_order_relaxed);
}

std::size_t ScratchArena::mapped_bytes() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

std::size_t ScratchArena::live_mapped_bytes() noexcept {
  return live_bytes.load(std::memory_order_relaxed);
}

void* ScratchArena::do_allocate(std::size_t bytes, std::size_t alignment) {
  GEMS_CHECK(alignment <= kPageBytes);
  bytes = std::max<std::size_t>(bytes, 1);
  offset_ = round_up(offset_, alignment);
  while (current_ < blocks_.size() &&
         offset_ + bytes > blocks_[current_].size) {
    ++current_;
    offset_ = 0;
  }
  if (current_ == blocks_.size()) {
    const std::size_t size = std::max(kBlockBytes, page_round_up(bytes));
    blocks_.push_back({static_cast<std::byte*>(map_pages(size)), size});
    live_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = blocks_[current_].base + offset_;
  offset_ += bytes;
  return p;
}

void ScratchArena::do_deallocate(void* p, std::size_t bytes, std::size_t) {
  std::byte* const at = static_cast<std::byte*>(p);
  if (current_ < blocks_.size()) {
    std::byte* const base = blocks_[current_].base;
    if (at >= base &&
        at + std::max<std::size_t>(bytes, 1) == base + offset_) {
      offset_ = static_cast<std::size_t>(at - base);
      return;
    }
  }
  // Any other allocation's bytes are never carved again: a large one
  // (the old array of a vector that grew) gives its pages back now.
  if (bytes >= kPageMapBytes) release_pages(at, bytes);
}

}  // namespace gems
