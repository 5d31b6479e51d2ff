// Unit tests for src/common: Status/Result, bitset, string pool, id table,
// PRNG, thread pool, CRC-32, metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <memory_resource>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "cluster/coordinator.hpp"
#include "common/bitset.hpp"
#include "common/crc32.hpp"
#include "common/hash.hpp"
#include "common/id_table.hpp"
#include "common/large_array.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "common/scratch_arena.hpp"
#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "common/thread_pool.hpp"
#include "crc32_oracle.hpp"
#include "net/server.hpp"
#include "server/database.hpp"

namespace gems {
namespace {

// ---- Status / Result ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = parse_error("unexpected ')'");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.to_string(), "ParseError: unexpected ')'");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = not_found("no column 'x'").with_context("binding query");
  EXPECT_EQ(s.message(), "binding query: no column 'x'");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::ok().with_context("ctx").is_ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = io_error("disk gone");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

Result<int> half(int x) {
  if (x % 2 != 0) return invalid_argument("odd");
  return x / 2;
}

Result<int> quarter(int x) {
  GEMS_ASSIGN_OR_RETURN(int h, half(x));
  GEMS_ASSIGN_OR_RETURN(int q, half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(quarter(8).value(), 2);
  EXPECT_FALSE(quarter(6).is_ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(quarter(7).is_ok());
}

// ---- DynamicBitset --------------------------------------------------------

TEST(BitsetTest, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitsetTest, InitialValueTrueRespectsSize) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.any());
}

TEST(BitsetTest, SetAllClearsTrailingBits) {
  DynamicBitset b(65);
  b.set_all();
  EXPECT_EQ(b.count(), 65u);
}

TEST(BitsetTest, AndOrSubtract) {
  DynamicBitset a(100), b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(60);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 4u);
  DynamicBitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_FALSE(d.test(50));
}

TEST(BitsetTest, ForEachVisitsAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> want = {3, 63, 64, 128, 199};
  for (auto i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitsetTest, ResizeGrowWithValue) {
  DynamicBitset b(10);
  b.set(3);
  b.resize(100, true);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(4));  // old region keeps old values
  EXPECT_TRUE(b.test(10));  // new region filled with true
  EXPECT_TRUE(b.test(99));
  EXPECT_EQ(b.count(), 91u);
}

TEST(BitsetTest, ToIndices) {
  DynamicBitset b(10);
  b.set(2);
  b.set(7);
  EXPECT_EQ(b.to_indices(), (std::vector<std::uint32_t>{2, 7}));
}

TEST(BitsetTest, IntersectChangedReportsShrink) {
  DynamicBitset a(130), b(130);
  a.set(1);
  a.set(64);
  a.set(129);
  b.set_all();
  EXPECT_FALSE(a.intersect_changed(b));  // superset: no change
  EXPECT_EQ(a.count(), 3u);
  DynamicBitset c(130);
  c.set(1);
  c.set(129);
  EXPECT_TRUE(a.intersect_changed(c));  // drops bit 64
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(64));
  EXPECT_FALSE(a.intersect_changed(c));  // idempotent
}

/// Calls fn(index) for every set bit of `b` whose word index lies in
/// [word_begin, word_end), ascending, read through words().
template <typename Fn>
void for_each_in_range(const DynamicBitset& b, std::size_t word_begin,
                       std::size_t word_end, Fn&& fn) {
  const std::span<const std::uint64_t> words = b.words();
  word_end = std::min(word_end, words.size());
  for (std::size_t w = word_begin; w < word_end; ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
    }
  }
}

TEST(BitsetTest, ForEachInRangeCoversExactlyTheWords) {
  DynamicBitset b(300);
  const std::vector<std::size_t> want = {0, 63, 64, 127, 128, 191, 299};
  for (auto i : want) b.set(i);
  // Words [1, 3) cover bits [64, 192).
  std::vector<std::size_t> got;
  for_each_in_range(b, 1, 3, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::size_t>{64, 127, 128, 191}));
  // Whole-range iteration equals for_each.
  got.clear();
  for_each_in_range(b, 0, b.num_words(), [&](std::size_t i) {
    got.push_back(i);
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.num_words(), 5u);  // ceil(300 / 64)
}

// ---- StringPool -----------------------------------------------------------

TEST(StringPoolTest, InternDeduplicates) {
  StringPool pool;
  const StringId a = pool.intern("hello");
  const StringId b = pool.intern("world");
  const StringId c = pool.intern("hello");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.view(a), "hello");
  EXPECT_EQ(pool.view(b), "world");
}

TEST(StringPoolTest, FindWithoutInterning) {
  StringPool pool;
  EXPECT_EQ(pool.find("missing"), kInvalidStringId);
  const StringId a = pool.intern("present");
  EXPECT_EQ(pool.find("present"), a);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPoolTest, EmptyStringIsInternable) {
  StringPool pool;
  const StringId a = pool.intern("");
  EXPECT_EQ(pool.view(a), "");
}

TEST(StringPoolTest, ByteSizeAccumulates) {
  StringPool pool;
  pool.intern("abc");
  pool.intern("de");
  pool.intern("abc");  // duplicate: not counted twice
  EXPECT_EQ(pool.byte_size(), 5u);
}

TEST(StringPoolTest, ConcurrentInternIsConsistent) {
  StringPool pool;
  ThreadPool workers(4);
  std::vector<std::future<void>> futs;
  std::array<std::array<StringId, 100>, 4> ids{};
  for (int t = 0; t < 4; ++t) {
    futs.push_back(workers.submit([&pool, &ids, t] {
      for (int i = 0; i < 100; ++i) {
        ids[t][i] = pool.intern("str" + std::to_string(i));
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(pool.size(), 100u);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(ids[t], ids[0]);
}

std::string pool_key(std::size_t i) {
  // Varied lengths, so strings straddle arena block boundaries.
  const char fill = static_cast<char>('a' + i % 26);
  return std::to_string(i) + std::string(i % 40, fill);
}

TEST(StringPoolTest, InternsAcrossManyArenaBlocks) {
  StringPool pool;
  constexpr std::size_t kStrings = 60000;
  std::size_t chars = 0;
  for (std::size_t i = 0; i < kStrings; ++i) {
    const std::string s = pool_key(i);
    ASSERT_EQ(pool.intern(s), static_cast<StringId>(i));  // dense, in order
    chars += s.size();
  }
  ASSERT_GT(chars, 16 * StringPool::kBlockBytes);
  EXPECT_EQ(pool.size(), kStrings);
  EXPECT_EQ(pool.byte_size(), chars);
  EXPECT_GE(pool.memory_bytes(), chars);
  for (std::size_t i = 0; i < kStrings; ++i) {
    const std::string s = pool_key(i);
    ASSERT_EQ(pool.view(static_cast<StringId>(i)), s);
    ASSERT_EQ(pool.find(s), static_cast<StringId>(i));
    ASSERT_EQ(pool.intern(s), static_cast<StringId>(i));  // no new id
  }
  EXPECT_EQ(pool.size(), kStrings);
}

TEST(StringPoolTest, OversizedEmptyAndEmbeddedNulStrings) {
  StringPool pool;
  const StringId small = pool.intern("before");
  const std::string big(2 * StringPool::kBlockBytes + 3, 'x');
  const StringId big_id = pool.intern(big);
  const StringId after = pool.intern("after");  // shared block still used
  const StringId empty = pool.intern("");
  const std::string nul_b("a\0b", 3);
  const std::string nul_c("a\0c", 3);
  const StringId b = pool.intern(nul_b);
  const StringId c = pool.intern(nul_c);
  const StringId a = pool.intern("a");
  EXPECT_EQ(pool.size(), 7u);
  EXPECT_EQ(pool.view(small), "before");
  EXPECT_EQ(pool.view(big_id), big);
  EXPECT_EQ(pool.view(after), "after");
  EXPECT_EQ(pool.view(empty), "");
  EXPECT_NE(pool.view(empty).data(), nullptr);  // safe to memcpy from
  EXPECT_EQ(pool.view(b), nul_b);
  EXPECT_EQ(pool.view(c), nul_c);
  EXPECT_NE(b, c);
  EXPECT_NE(b, a);
  EXPECT_EQ(pool.intern(big), big_id);
  EXPECT_EQ(pool.intern(""), empty);
  EXPECT_EQ(pool.intern(nul_c), c);
  EXPECT_EQ(pool.find(std::string(big.size() - 1, 'x')), kInvalidStringId);
  EXPECT_EQ(pool.byte_size(), 6 + big.size() + 5 + 0 + 3 + 3 + 1);
}

TEST(StringPoolTest, ViewSurvivesOneMillionLaterInterns) {
  StringPool pool;
  const StringId first = pool.intern("first");
  const std::string_view before = pool.view(first);
  for (std::size_t i = 0; i < 1000000; ++i) pool.intern(std::to_string(i));
  EXPECT_EQ(before, "first");
  EXPECT_EQ(pool.view(first).data(), before.data());
  EXPECT_EQ(pool.size(), 1000001u);
}

TEST(StringPoolTest, ForEachVisitsInIdOrder) {
  StringPool pool;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::string s = pool_key(i * 7919 % 5000);
    pool.intern(s);
    pool.intern(s);  // a repeat takes no id
    expected.push_back(s);
  }
  StringId next = 0;
  std::vector<std::string> seen;
  pool.for_each([&](StringId id, std::string_view s) {
    EXPECT_EQ(id, next++);
    seen.emplace_back(s);
  });
  EXPECT_EQ(seen, expected);
}

TEST(StringPoolTest, FindOnAbsentStrings) {
  StringPool pool;
  EXPECT_EQ(pool.find(""), kInvalidStringId);
  for (std::size_t i = 0; i < 10000; ++i) pool.intern("k" + std::to_string(i));
  for (std::size_t i = 10000; i < 20000; ++i) {
    EXPECT_EQ(pool.find("k" + std::to_string(i)), kInvalidStringId);
  }
  EXPECT_EQ(pool.find("k"), kInvalidStringId);      // a prefix
  EXPECT_EQ(pool.find("k12x"), kInvalidStringId);   // an extension
  EXPECT_EQ(pool.find(""), kInvalidStringId);
  EXPECT_EQ(pool.size(), 10000u);  // find never interns
}

TEST(StringPoolTest, ConcurrentInternAndView) {
  // Four threads intern overlapping key ranges and view every id any
  // thread has published so far, while the views vector and the index
  // grow underneath them.
  StringPool pool;
  constexpr int kThreads = 4;
  constexpr std::size_t kKeys = 20000;
  std::vector<std::atomic<StringId>> published(kKeys);
  for (auto& p : published) p.store(kInvalidStringId);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < kKeys; ++n) {
        const std::size_t i = (n + static_cast<std::size_t>(t) * 5000) % kKeys;
        const StringId id = pool.intern(pool_key(i));
        published[i].store(id, std::memory_order_release);
        const std::size_t j = (i * 31) % kKeys;
        const StringId other = published[j].load(std::memory_order_acquire);
        if (pool.view(id) != pool_key(i)) mismatches.fetch_add(1);
        if (other != kInvalidStringId && pool.view(other) != pool_key(j)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(pool.find(pool_key(i)), published[i].load());
  }
}

/// A string list with repeats (inside one batch and across batches), empty
/// strings, strings longer than an arena block, and enough characters to
/// fill many blocks.
std::vector<std::string> batch_keys() {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 6000; ++i) {
    keys.push_back(pool_key(i * 7919 % 4000));  // 2000 repeats
    if (i % 500 == 0) keys.emplace_back();
    if (i % 1500 == 7) {
      keys.emplace_back(StringPool::kBlockBytes + 1 + i, 'L');
    }
  }
  keys.emplace_back(StringPool::kBlockBytes + 8, 'L');  // a repeat, in full
  return keys;
}

void expect_same_pool(const StringPool& a, const StringPool& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.byte_size(), b.byte_size());
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  std::vector<std::string> in_a, in_b;
  a.for_each([&](StringId, std::string_view s) { in_a.emplace_back(s); });
  b.for_each([&](StringId, std::string_view s) { in_b.emplace_back(s); });
  EXPECT_EQ(in_a, in_b);
}

TEST(StringPoolTest, InternBatchMatchesSequentialIntern) {
  const std::vector<std::string> keys = batch_keys();
  StringPool sequential;
  std::vector<StringId> want;
  for (const std::string& k : keys) want.push_back(sequential.intern(k));

  for (const std::size_t batch : {1ul, 7ul, 1024ul, keys.size()}) {
    StringPool batched;
    std::vector<StringId> got(keys.size(), kInvalidStringId);
    for (std::size_t at = 0; at < keys.size(); at += batch) {
      const std::size_t n = std::min(batch, keys.size() - at);
      const std::vector<std::string_view> views(keys.begin() + at,
                                                keys.begin() + at + n);
      batched.intern_batch(views, got.data() + at);
    }
    EXPECT_EQ(got, want) << "batch " << batch;
    expect_same_pool(batched, sequential);
  }
}

TEST(StringPoolTest, InternBatchRepeatsInsideOneBatch) {
  StringPool pool;
  const std::string big(StringPool::kBlockBytes * 2, 'x');
  const std::vector<std::string_view> batch = {"a", "", "b", "a", big,
                                               "",  "b", big, "c"};
  std::vector<StringId> ids(batch.size());
  pool.intern_batch(batch, ids.data());
  EXPECT_EQ(ids, (std::vector<StringId>{0, 1, 2, 0, 3, 1, 2, 3, 4}));
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.byte_size(), 3 + big.size());
  EXPECT_EQ(pool.view(3), big);
  EXPECT_EQ(pool.view(1), "");
  pool.intern_batch({}, nullptr);  // an empty batch changes nothing
  EXPECT_EQ(pool.size(), 5u);
}

TEST(StringPoolTest, InternBatchConcurrentWithIntern) {
  // Four threads intern one overlapping key set, two one key at a time and
  // two in batches, each starting at a different key. Every key must end
  // up with exactly one id, whichever path interned it first.
  StringPool pool;
  constexpr int kThreads = 4;
  constexpr std::size_t kKeys = 20000;
  std::vector<std::vector<StringId>> seen(kThreads,
                                          std::vector<StringId>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t start = static_cast<std::size_t>(t) * 5000;
      std::vector<std::string> keys;
      std::vector<std::size_t> index;
      auto flush = [&] {
        const std::vector<std::string_view> views(keys.begin(), keys.end());
        std::vector<StringId> ids(views.size());
        pool.intern_batch(views, ids.data());
        for (std::size_t k = 0; k < ids.size(); ++k) seen[t][index[k]] = ids[k];
        keys.clear();
        index.clear();
      };
      for (std::size_t n = 0; n < kKeys; ++n) {
        const std::size_t i = (start + n) % kKeys;
        if (t % 2 == 0) {
          seen[t][i] = pool.intern(pool_key(i));
          continue;
        }
        keys.push_back(pool_key(i));
        index.push_back(i);
        if (keys.size() == 300) flush();
      }
      flush();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const StringId id = pool.find(pool_key(i));
    ASSERT_NE(id, kInvalidStringId);
    for (int t = 0; t < kThreads; ++t) ASSERT_EQ(seen[t][i], id) << i;
  }
}

/// The arena packing DESIGN.md §5m states, replayed: a non-empty string of
/// at most a block goes in the current block's free tail, or opens the
/// next block when it does not fit; a longer one and the empty string take
/// no block bytes.
struct ArenaOracle {
  std::size_t blocks = 0;
  std::size_t free = 0;  // bytes left in the current block

  /// Packs a string of `n` bytes; true when it opened a block.
  bool add(std::size_t n) {
    if (n == 0 || n > StringPool::kBlockBytes) return false;
    const bool opened = n > free;
    if (opened) {
      ++blocks;
      free = StringPool::kBlockBytes;
    }
    free -= n;
    return opened;
  }
};

/// A distinct string of exactly `n` >= 12 bytes for each `i`.
std::string sized_key(std::size_t i, std::size_t n) {
  std::string s = std::to_string(i) + "#";
  s.resize(n, static_cast<char>('a' + i % 26));
  return s;
}

/// Interns `keys` (all distinct) into a fresh pool and checks every view
/// against them, and its find(), while its chunk is the tail and again
/// after the chunk has sealed. A view's data pointer does not move when
/// its chunk seals.
void expect_views_match(const std::vector<std::string>& keys) {
  StringPool pool;
  std::vector<const char*> data(keys.size());
  const auto check = [&](std::size_t first, std::size_t last) {
    for (std::size_t id = first; id < last; ++id) {
      const std::string_view v = pool.view(static_cast<StringId>(id));
      ASSERT_EQ(v, keys[id]) << "id " << id;
      ASSERT_NE(v.data(), nullptr) << "id " << id;
      ASSERT_EQ(pool.find(keys[id]), id) << "id " << id;
      if (data[id] == nullptr) data[id] = v.data();
      ASSERT_EQ(v.data(), data[id]) << "id " << id;
    }
  };
  for (std::size_t id = 0; id < keys.size(); ++id) {
    ASSERT_EQ(pool.intern(keys[id]), id);
    check(id, id + 1);
    const std::size_t n = id + 1;
    if (n % kChunkRows == 0) check(n - kChunkRows, n);  // still the tail
    if (n % kChunkRows == 1 && n > 1) check(n - 1 - kChunkRows, n - 1);
  }
  check(0, keys.size());
  EXPECT_EQ(pool.size(), keys.size());
  std::vector<std::string> seen;
  pool.for_each([&](StringId, std::string_view s) { seen.emplace_back(s); });
  EXPECT_EQ(seen, keys);
}

TEST(StringPoolTest, OffsetLayoutEdgesMatchAnOracle) {
  const std::size_t kBlock = StringPool::kBlockBytes;
  ArenaOracle arena;
  std::vector<std::string> keys;
  const auto add = [&](std::string s) {
    arena.add(s.size());
    keys.push_back(std::move(s));
  };
  // Filler strings of `n` bytes until the current block has between
  // `leave` and `leave + n` bytes free.
  const auto fill_to = [&](std::size_t leave, std::size_t n) {
    while (arena.free >= leave + n) add(sized_key(keys.size(), n));
  };

  // The empty string as id 0; then a string that exactly fills the first
  // block's free tail, and one that opens the next block.
  add("");
  add(sized_key(keys.size(), 100));
  fill_to(100, 300);
  add(sized_key(keys.size(), arena.free));
  ASSERT_EQ(arena.free, 0u);
  ASSERT_EQ(arena.blocks, 1u);
  ASSERT_TRUE(arena.add(12));
  keys.push_back(sized_key(keys.size(), 12));
  // Oversized strings at ids 1023, 1024 and 1025, the last id of chunk 0
  // and the first two of chunk 1.
  while (keys.size() < kChunkRows - 1) add(sized_key(keys.size(), 20));
  for (const char c : {'x', 'y', 'z'}) add(std::string(kBlock + 1, c));
  ASSERT_EQ(keys[kChunkRows].size(), kBlock + 1);
  // Chunk 1 spans more than 2^16 offsets (4-byte lanes), chunk 2 fewer
  // (2-byte lanes), and a block skip lands inside each.
  while (keys.size() < 2 * kChunkRows) add(sized_key(keys.size(), 200));
  while (keys.size() < 3 * kChunkRows + 10) add(sized_key(keys.size(), 13));
  expect_views_match(keys);

  // The empty string right after a block skip, at the first id of chunk
  // 1, and an oversized string right after another skip.
  arena = ArenaOracle();
  keys.clear();
  const auto skip = [&] {
    const std::size_t n = std::max<std::size_t>(12, arena.free + 1);
    ASSERT_TRUE(arena.add(n));
    keys.push_back(sized_key(keys.size(), n));
  };
  while (keys.size() < kChunkRows - 1) add(sized_key(keys.size(), 20));
  skip();   // id 1023
  add("");  // id 1024
  fill_to(10, 30);
  skip();
  add(std::string(2 * kBlock, 'o'));
  add(sized_key(keys.size(), 12));  // back in the skipped-to block
  ASSERT_EQ(arena.blocks, 3u);
  expect_views_match(keys);

  // The per-id cost: for 100,000 strings of 5 to 20 bytes, what the pool
  // holds beyond its arena blocks and its index is at most 2.5 bytes a
  // string (a std::string_view per id would take 16).
  constexpr std::size_t kStrings = 100000;
  StringPool pool;
  arena = ArenaOracle();
  for (std::size_t i = 0; i < kStrings; ++i) {
    // The digits of i, then '_' padding.
    std::string s = std::to_string(i);
    s.resize(5 + mix64(i) % 16, '_');
    arena.add(s.size());
    ASSERT_EQ(pool.intern(s), i);
  }
  const std::size_t per_id = pool.memory_bytes() -
                             arena.blocks * StringPool::kBlockBytes -
                             IdTable::byte_size_for(kStrings);
  EXPECT_LE(per_id, kStrings * 5 / 2) << per_id << " bytes";
}

// ---- IdTable ----------------------------------------------------------------

TEST(IdTableTest, CapacityDependsOnlyOnEntryCount) {
  // One by one or after a reserve, n entries occupy the smallest power of
  // two >= 16 with n <= 7/8 of it, in slots of 8 bytes.
  for (const std::size_t n : {0u, 1u, 14u, 15u, 100u, 1000u}) {
    IdTable grown;
    IdTable reserved;
    reserved.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      grown.insert(mix64(i), i);
      reserved.insert(mix64(i), i);
    }
    std::size_t slots = n == 0 ? 0 : IdTable::kMinCapacity;
    while (8 * n > 7 * slots) slots *= 2;
    EXPECT_EQ(grown.byte_size(), slots * 8) << n;
    EXPECT_EQ(reserved.byte_size(), slots * 8) << n;
    EXPECT_EQ(grown.size(), n);
  }
}

TEST(IdTableTest, EqualityDecidesAmongCollidingHashes) {
  // Every key hashes alike: lookups must walk the chain and let the
  // caller's equality pick the id, across several growths.
  IdTable table;
  std::vector<int> keys;
  for (int k = 0; k < 300; ++k) {
    const auto equal = [&](std::uint32_t id) { return keys[id] == k; };
    ASSERT_EQ(table.find(42, equal), IdTable::kNone);
    table.insert(42, static_cast<std::uint32_t>(keys.size()));
    keys.push_back(k);
  }
  for (int k = 0; k < 300; ++k) {
    EXPECT_EQ(table.find(42, [&](std::uint32_t id) { return keys[id] == k; }),
              static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(table.find(42, [](std::uint32_t) { return false; }),
            IdTable::kNone);
  EXPECT_EQ(table.find(7, [](std::uint32_t) { return true; }),
            IdTable::kNone);  // another tag never reaches equality
}

}  // namespace

// Reads an IdTable's slots as (tag, id) pairs; kNone marks an empty slot.
class IdTableInspector {
 public:
  static std::vector<std::pair<std::uint32_t, std::uint32_t>> slots(
      const IdTable& table) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (const IdTable::Slot& s : table.slots_) out.emplace_back(s.tag, s.id);
    return out;
  }
};

namespace {

// Hash families for IdTableTest. A hash below 2^32 is its own tag.
enum class TagFamily { kRandom, kOneTag, kNearTop, kNearZero };

std::uint64_t family_hash(TagFamily family, std::uint64_t key) {
  switch (family) {
    case TagFamily::kRandom:
      return mix64(key);
    case TagFamily::kOneTag:
      return 0x5bd1e995u;
    case TagFamily::kNearTop:  // the top 1/8 of tags: runs wrap past the end
      return 0xffffffffu - (mix64(key) >> 35);
    case TagFamily::kNearZero:  // the bottom 1/8 of tags
      return mix64(key) >> 35;
  }
  return 0;
}

// Each slot's displacement past its home, the top log2(capacity) bits of
// its tag, or nothing for an empty slot. Along a run the unwrapped home
// (slot index minus displacement) never decreases: a run that wraps past
// the table's end carries its homes on from the end.
std::vector<std::optional<std::size_t>> checked_displacements(
    const IdTable& table) {
  const auto slots = IdTableInspector::slots(table);
  const std::size_t capacity = slots.size();
  EXPECT_EQ(capacity & (capacity - 1), 0u);
  const int shift = 32 - std::countr_zero(capacity);
  std::vector<std::optional<std::size_t>> out(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    if (slots[i].second == IdTable::kNone) continue;
    const std::size_t home = slots[i].first >> shift;
    out[i] = (i - home) & (capacity - 1);
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    const std::size_t next = (i + 1) & (capacity - 1);
    if (out[i] && out[next]) {
      EXPECT_LE(*out[next], *out[i] + 1) << "home falls at slot " << next;
    }
  }
  return out;
}

TEST(IdTableTest, RandomAndAdversarialTagsMatchAMapOracle) {
  // Entry counts one below, at and one above 7/8 of each capacity. The
  // families that pile every tag onto a few homes make one run as long as
  // the table, so each probe walks it: they stop at 2^12 slots.
  for (const TagFamily family : {TagFamily::kRandom, TagFamily::kOneTag,
                                 TagFamily::kNearTop, TagFamily::kNearZero}) {
    const std::size_t top = family == TagFamily::kRandom ? 1u << 16 : 1u << 12;
    for (std::size_t capacity = 16; capacity <= top; capacity *= 2) {
      const std::size_t full = capacity / 8 * 7;
      for (const std::size_t n : {full - 1, full, full + 1}) {
        SCOPED_TRACE("family " + std::to_string(static_cast<int>(family)) +
                     " n " + std::to_string(n));
        // Keys 0..n-1 are stored; n..n+99 are absent.
        std::vector<std::uint64_t> keys(n + 100);
        for (std::size_t k = 0; k < keys.size(); ++k) keys[k] = 3 * k + 1;
        std::unordered_map<std::uint64_t, std::uint32_t> oracle;
        IdTable grown;
        IdTable reserved;
        reserved.reserve(4 * n);
        IdTable evens;
        IdTable odds;
        for (std::uint32_t id = 0; id < n; ++id) {
          const std::uint64_t hash = family_hash(family, keys[id]);
          const auto equal = [&](std::uint32_t got) {
            return keys[got] == keys[id];
          };
          ASSERT_EQ(grown.find(hash, equal), IdTable::kNone);
          grown.insert(hash, id);
          reserved.insert(hash, id);
          (id % 2 == 0 ? evens : odds).insert(hash, id);
          oracle.emplace(keys[id], id);
        }
        ASSERT_EQ(grown.byte_size(), IdTable::byte_size_for(n));
        EXPECT_EQ(grown.byte_size(),
                  (n == full + 1 ? 2 * capacity : capacity) * 8);
        const IdTable compacted = reserved.compacted();
        const IdTable merged = IdTable::merged(evens, odds);
        EXPECT_EQ(compacted.byte_size(), grown.byte_size());
        EXPECT_EQ(merged.byte_size(), grown.byte_size());
        for (const IdTable* table :
             std::array<const IdTable*, 3>{&grown, &compacted, &merged}) {
          const auto displacements = checked_displacements(*table);
          for (const std::uint64_t key : keys) {
            const auto it = oracle.find(key);
            const std::uint32_t want =
                it == oracle.end() ? IdTable::kNone : it->second;
            const auto equal = [&](std::uint32_t got) {
              return keys[got] == key;
            };
            ASSERT_EQ(table->find(family_hash(family, key), equal), want)
                << key;
          }
          if (family == TagFamily::kRandom && n == full) {
            std::size_t total = 0;
            for (const auto& d : displacements) total += d.value_or(0);
            EXPECT_LE(static_cast<double>(total) / n, 4.0) << capacity;
          }
        }
      }
    }
  }
}

// ---- PRNG -------------------------------------------------------------------

TEST(PrngTest, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(PrngTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(PrngTest, RangeInclusive) {
  Xoshiro256 rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(PrngTest, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, CurrentMarksOnlyItsOwnWorkers) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool outer(2);
  ThreadPool inner(3);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(outer.submit([&] {
      EXPECT_EQ(ThreadPool::current(), &outer);
      // A task may fan out to another pool and wait: its workers carry
      // their own marker, and this thread keeps the outer one.
      inner.submit([&] {
        EXPECT_EQ(ThreadPool::current(), &inner);
      }).get();
      EXPECT_EQ(ThreadPool::current(), &outer);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

// ---- ScratchArena -----------------------------------------------------------

TEST(ScratchArenaTest, MapsBlocksOnDemandAndUnmapsThemWhole) {
  const std::size_t live = ScratchArena::live_mapped_bytes();
  {
    ScratchArena arena;
    EXPECT_EQ(arena.mapped_bytes(), 0u);
    std::pmr::vector<std::uint32_t> a(1000, 7u, &arena);
    EXPECT_EQ(arena.mapped_bytes(), ScratchArena::kBlockBytes);
    // A request larger than a block gets a block of its own.
    std::pmr::vector<std::byte> big(ScratchArena::kBlockBytes + 1, &arena);
    EXPECT_GT(arena.mapped_bytes(), 2 * ScratchArena::kBlockBytes);
    EXPECT_EQ(ScratchArena::live_mapped_bytes(), live + arena.mapped_bytes());
    EXPECT_EQ(a[999], 7u);
    // Aligned allocations stay aligned.
    void* p = arena.allocate(3, 1);
    void* q = arena.allocate(64, 64);
    EXPECT_NE(p, q);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u);
  }
  EXPECT_EQ(ScratchArena::live_mapped_bytes(), live);
}

// Freeing an allocation that is not the latest gives the whole pages of a
// large one back, so a vector that grew by doubling keeps only its live
// array resident.
TEST(ScratchArenaTest, FreeingAnOlderLargeAllocationReleasesItsPages) {
  const auto resident_pages = [](const void* p, std::size_t bytes) {
    std::vector<unsigned char> in(bytes / kPageBytes);
    EXPECT_EQ(mincore(const_cast<void*>(p), bytes, in.data()), 0);
    return static_cast<std::size_t>(
        std::count_if(in.begin(), in.end(),
                      [](unsigned char c) { return (c & 1) != 0; }));
  };
  ScratchArena arena;
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  // Page-aligned, so every page of the allocation is its own.
  void* older = arena.allocate(kBytes, kPageBytes);
  std::memset(older, 0xab, kBytes);
  void* latest = arena.allocate(kBytes, kPageBytes);
  std::memset(latest, 0xcd, kBytes);
  EXPECT_EQ(resident_pages(older, kBytes), kBytes / kPageBytes);
  arena.deallocate(older, kBytes, kPageBytes);
  EXPECT_EQ(resident_pages(older, kBytes), 0u);
  // The latest allocation is rewound, not released: its pages serve the
  // next allocation.
  arena.deallocate(latest, kBytes, kPageBytes);
  EXPECT_EQ(resident_pages(latest, kBytes), kBytes / kPageBytes);
  EXPECT_EQ(arena.allocate(kBytes, kPageBytes), latest);
}

// ---- IdTable::compacted -----------------------------------------------------

TEST(IdTableTest, CompactedCopyHasTheCapacityItsSizeCallsFor) {
  ScratchArena arena;
  IdTable reserved(&arena);
  reserved.reserve(5000);
  IdTable grown;
  for (std::uint32_t id = 0; id < 300; ++id) {
    const std::uint64_t hash = mix64(id);
    reserved.insert(hash, id);
    grown.insert(hash, id);
  }
  const IdTable copy = reserved.compacted();
  EXPECT_EQ(copy.size(), 300u);
  EXPECT_EQ(copy.byte_size(), grown.byte_size());
  EXPECT_LT(copy.byte_size(), reserved.byte_size());
  for (std::uint32_t id = 0; id < 400; ++id) {
    const std::uint32_t want = id < 300 ? id : IdTable::kNone;
    const auto equal = [&](std::uint32_t got) { return got == id; };
    EXPECT_EQ(copy.find(mix64(id), equal), want);
  }
}

// ---- CRC-32 -----------------------------------------------------------------

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32Test, CheckValueAndEmptyInput) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32_oracle::crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_final(crc32_update(kCrc32Init, {})), 0u);
}

TEST(Crc32Test, EverySplitPointMatchesOneShot) {
  const std::vector<std::uint8_t> buf = random_bytes(1000, 23);
  const std::uint32_t whole = crc32(buf);
  EXPECT_EQ(whole, crc32_oracle::crc32(buf));
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t state =
        crc32_update(crc32_update(kCrc32Init, all.first(split)),
                     all.subspan(split));
    ASSERT_EQ(crc32_final(state), whole) << "split at " << split;
  }
}

TEST(Crc32Test, EveryAlignmentAndLengthMatchesOracle) {
  // Each slice gets its own exact-size allocation, so a block load or a
  // tail step that reads one byte too far leaves the heap block (the
  // sanitizer build runs this test by name).
  const std::vector<std::uint8_t> source = random_bytes(16 + 100, 24);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 100; ++len) {
      std::vector<std::uint8_t> buf(source.begin(),
                                    source.begin() + offset + len);
      const auto slice = std::span<const std::uint8_t>(buf).subspan(offset);
      ASSERT_EQ(crc32(slice), crc32_oracle::crc32(slice))
          << "offset " << offset << ", length " << len;
    }
  }
  const std::vector<std::uint8_t> large = random_bytes((1u << 20) + 7, 25);
  EXPECT_EQ(crc32(large), crc32_oracle::crc32(large));
}

// ---- hash -----------------------------------------------------------------

TEST(HashTest, Mix64SpreadsSequentialValues) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 1000u);
}

TEST(HashTest, PairHashDistinguishesOrder) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(1, 2)), h(std::make_pair(2, 1)));
}

// ---- Metrics registry ----------------------------------------------------

TEST(MetricsRegistryTest, ConcurrentRecordingAddsUpExactly) {
  metrics::Registry registry;
  metrics::Counter& counter = registry.counter("test.counter");
  metrics::Histogram& histogram = registry.histogram("test.latency_us");
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  // A reader snapshots throughout; the counter it sees never goes back.
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now =
          metrics::value(registry.snapshot(), "test.counter");
      if (now < last) regressions.fetch_add(1);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kRecords; ++i) {
        counter.add();
        histogram.record(static_cast<std::uint64_t>(i % 100));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(regressions.load(), 0);
  const metrics::Snapshot snap = registry.snapshot();
  EXPECT_EQ(metrics::value(snap, "test.counter"),
            static_cast<std::uint64_t>(kThreads * kRecords));
  const metrics::Record* latency = metrics::find(snap, "test.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, metrics::Kind::kHistogram);
  EXPECT_EQ(latency->histogram.count,
            static_cast<std::uint64_t>(kThreads * kRecords));
  // Each thread records 0..99 fifty times: 50 * 4950 per thread.
  EXPECT_EQ(latency->histogram.sum_us,
            static_cast<std::uint64_t>(kThreads) * 50 * 4950);
  EXPECT_EQ(latency->histogram.max_us, 99u);
}

TEST(MetricsRegistryTest, RegisteringAnExistingNameReturnsTheSameHandle) {
  metrics::Registry registry;
  metrics::Counter& first = registry.counter("a.count");
  first.add(3);
  EXPECT_EQ(&registry.counter("a.count"), &first);
  EXPECT_EQ(&registry.gauge("a.level"), &registry.gauge("a.level"));
  EXPECT_EQ(&registry.histogram("a.us"), &registry.histogram("a.us"));
  registry.counter("a.count").add(2);
  const metrics::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // one record per name
  EXPECT_EQ(metrics::value(snap, "a.count"), 5u);
}

TEST(MetricsRegistryTest, ValueOfAMissingNameOrAHistogramIsAnError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  metrics::Registry registry;
  registry.gauge("level").set(2);
  registry.histogram("level_us").record(5);
  const metrics::Snapshot snap = registry.snapshot();
  EXPECT_EQ(metrics::value(snap, "level"), 2u);
  EXPECT_EQ(metrics::find(snap, "missing"), nullptr);
  // A misspelt name must not read as 0.
  EXPECT_DEATH(metrics::value(snap, "levle"), "no counter or gauge");
  EXPECT_DEATH(metrics::value(snap, "level_us"), "no counter or gauge");
}

TEST(MetricsRegistryTest, SnapshotsMergeSortedAndRenderByPrefix) {
  metrics::Registry a;
  metrics::Registry b;
  a.counter("x.b").add(2);
  a.gauge("z.flag").set(1);
  b.counter("x.a").add(1);
  b.histogram("y.us").record(8);
  metrics::Snapshot snap = a.snapshot();
  metrics::merge(snap, b.snapshot());
  std::vector<std::string> names;
  for (const metrics::Record& r : snap) names.push_back(r.name);
  EXPECT_EQ(names, (std::vector<std::string>{"x.a", "x.b", "y.us", "z.flag"}));
  EXPECT_EQ(metrics::render(snap, "x."), "x.a  1\nx.b  2\n");
  EXPECT_EQ(metrics::render(snap, "y."),
            "y.us  n=1 mean=8 p50=8 p99=8 max=8\n");
  EXPECT_EQ(metrics::render(snap, "nope."), "");
}

/// Names of the records whose name starts with `prefix`, in order.
std::vector<std::string> names_under(const metrics::Snapshot& snapshot,
                                     const std::string& prefix) {
  std::vector<std::string> out;
  for (const metrics::Record& r : snapshot) {
    if (r.name.starts_with(prefix)) out.push_back(r.name.substr(prefix.size()));
  }
  return out;
}

TEST(MetricsRegistryTest, EveryLayerRegistersItsNames) {
  // A durable database behind a server, with a one-rank coordinator:
  // every layer registers at construction, so the list is complete before
  // anything runs. A layer that forgets a name fails here.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "gems_metrics_names";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    server::DatabaseOptions options;
    options.store_dir = dir + "/store";
    options.wal_fsync = false;
    server::Database db(options);
    ASSERT_TRUE(db.store_status().is_ok()) << db.store_status().to_string();
    cluster::CoordinatorOptions cluster_options;
    cluster_options.num_ranks = 1;
    cluster::Coordinator coordinator(db, cluster_options);
    net::Server server(db);
    const metrics::Snapshot snap = server.metrics_snapshot();

    std::vector<std::string> net_names;
    for (const char* verb : {"cancel", "catalog", "check", "explain",
                             "handshake", "run_script", "shutdown",
                             "stats"}) {
      for (const char* field :
           {"bytes_in", "bytes_out", "cancelled", "errors", "execute_us",
            "expired", "ok", "overloaded", "queue_wait_us", "requests"}) {
        net_names.push_back(std::string(verb) + "." + field);
      }
    }
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        layers = {
            {"access.writer.", {"acquired", "held_us", "wait_us"}},
            {"cluster.",
             {"fallbacks", "jobs", "rank.0.connected", "rank.0.jobs",
              "rank.0.messages", "rank.0.payload_bytes", "rank.0.stall_us",
              "rank.0.supersteps", "rank.0.wire_bytes", "ranks",
              "sync_bytes", "syncs"}},
            {"exec.match.",
             {"edge_traversals", "passes", "queries"}},
            {"graph.",
             {"csr.bytes", "csr.folds", "csr.tail_edges", "endpoints.bytes",
              "key_index.bytes", "key_index.folds", "vertex_rows.bytes"}},
            {"mvcc.",
             {"epochs.current", "epochs.freed", "epochs.live",
              "epochs.published", "epochs.retired", "ingest.delta",
              "ingest.delta_ns", "ingest.rebuild", "ingest.rebuild_ns",
              "pins.oldest_age_us", "pins.outstanding", "pins.peak",
              "pins.taken"}},
            {"memory.", {"mapped.bytes", "scratch.bytes"}},
            {"net.", net_names},
            {"storage.", {"pool.bytes", "pool.strings", "tables.bytes"}},
            {"store.",
             {"recovery.from_snapshot", "recovery.records_applied",
              "recovery.records_skipped", "recovery.replay_us",
              "recovery.snapshot_bytes", "recovery.snapshot_us",
              "recovery.truncated_bytes", "snapshot.last_bytes",
              "snapshot.write_us", "snapshot.written", "wal.append_us",
              "wal.bytes", "wal.records"}},
        };
    std::size_t listed = 0;
    for (const auto& [prefix, expected] : layers) {
      EXPECT_EQ(names_under(snap, prefix), expected) << prefix;
      listed += expected.size();
    }
    EXPECT_EQ(snap.size(), listed) << "a record outside the listed layers";
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gems
