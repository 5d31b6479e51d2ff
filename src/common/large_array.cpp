#include "common/large_array.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <new>

#include "common/check.hpp"

namespace gems {

void* map_pages(std::size_t bytes) {
  void* p = mmap(nullptr, page_round_up(bytes), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  munmap(p, page_round_up(bytes));
}

void release_pages(void* p, std::size_t bytes) noexcept {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = page_round_up(at);
  const std::uintptr_t last = (at + bytes) / kPageBytes * kPageBytes;
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
  }
}

namespace {

class LargeArrayResource final : public std::pmr::memory_resource {
 public:
  std::size_t mapped_bytes() const noexcept {
    return mapped_.load(std::memory_order_relaxed);
  }

 private:
  void* do_allocate(std::size_t bytes, std::size_t alignment) override {
    if (bytes < kPageMapBytes) {
      return std::pmr::new_delete_resource()->allocate(bytes, alignment);
    }
    GEMS_CHECK(alignment <= kPageBytes);
    void* p = map_pages(bytes);
    mapped_.fetch_add(page_round_up(bytes), std::memory_order_relaxed);
    return p;
  }

  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t alignment) override {
    if (bytes < kPageMapBytes) {
      std::pmr::new_delete_resource()->deallocate(p, bytes, alignment);
      return;
    }
    unmap_pages(p, bytes);
    mapped_.fetch_sub(page_round_up(bytes), std::memory_order_relaxed);
  }

  bool do_is_equal(const std::pmr::memory_resource& other) const
      noexcept override {
    return this == &other;
  }

  std::atomic<std::size_t> mapped_{0};
};

// Never destroyed: arrays in static storage may outlive any destructor.
LargeArrayResource& resource() noexcept {
  static LargeArrayResource* const r = new LargeArrayResource;
  return *r;
}

}  // namespace

std::pmr::memory_resource* large_array_resource() noexcept {
  return &resource();
}

std::size_t large_array_mapped_bytes() noexcept {
  return resource().mapped_bytes();
}

}  // namespace gems
