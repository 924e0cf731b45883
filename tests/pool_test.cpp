// util::PayloadPool: reuse, exhaustion fallback, and mixed release safety.
#include "util/pool.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/pooled_containers.hpp"

namespace rrnet::util {
namespace {

struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  explicit Payload(std::uint64_t v) : a(v), b(~v) {}
};

TEST(PayloadPool, ReusesChunksAfterRelease) {
  PayloadPool pool(/*capacity=*/4);
  void* first = pool.allocate(32);
  EXPECT_EQ(pool.stats().pool_allocs, 1u);
  PayloadPool::release(first);
  EXPECT_EQ(pool.stats().releases, 1u);
  // Free-list is LIFO: the released chunk comes straight back.
  void* second = pool.allocate(32);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  PayloadPool::release(second);
}

TEST(PayloadPool, ExhaustionFallsBackToHeapNeverFails) {
  PayloadPool pool(/*capacity=*/2);
  std::vector<void*> chunks;
  for (int i = 0; i < 5; ++i) chunks.push_back(pool.allocate(16));
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 3u);
  for (void* p : chunks) PayloadPool::release(p);
  // Only pool-owned chunks return to the free list (heap chunks are freed),
  // and pool release counting reflects that.
  EXPECT_EQ(pool.stats().releases, 2u);
  EXPECT_EQ(pool.free_count(), 2u);
  // After drain-and-release, pooled service resumes.
  void* again = pool.allocate(16);
  EXPECT_EQ(pool.stats().pool_allocs, 3u);
  PayloadPool::release(again);
}

TEST(PayloadPool, MismatchedSizeTakesHeapPath) {
  PayloadPool pool(/*capacity=*/4);
  void* sized = pool.allocate(24);  // fixes chunk size at 24
  void* other = pool.allocate(48);  // different size -> heap fallback
  EXPECT_EQ(pool.stats().pool_allocs, 1u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  PayloadPool::release(sized);
  PayloadPool::release(other);
}

TEST(PayloadPool, LazyCarveHandsOutAscendingChunks) {
  PayloadPool pool(/*capacity=*/4);
  pool.ensure_capacity(64, 48);
  EXPECT_EQ(pool.capacity(), 64u);
  std::vector<std::uintptr_t> chunks;
  for (int i = 0; i < 64; ++i) {
    chunks.push_back(reinterpret_cast<std::uintptr_t>(pool.allocate(48)));
  }
  EXPECT_EQ(pool.stats().pool_allocs, 64u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  // One arena, handed out front to back at a fixed stride.
  const std::uintptr_t stride = chunks[1] - chunks[0];
  EXPECT_GE(stride, 48u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i] - chunks[i - 1], stride) << i;
  }
  // Growing carves a second arena; its chunks follow the first's.
  pool.ensure_capacity(72, 48);
  for (int i = 0; i < 8; ++i) chunks.push_back(
      reinterpret_cast<std::uintptr_t>(pool.allocate(48)));
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  for (std::size_t i = 65; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i] - chunks[i - 1], stride) << i;
  }
  for (const std::uintptr_t p : chunks) {
    PayloadPool::release(reinterpret_cast<void*>(p));
  }
}

TEST(PayloadPool, ReservedChunksAreNotInUseAndReleasedOnesGoFirst) {
  PayloadPool pool(/*capacity=*/4);
  pool.ensure_capacity(1000, 32);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.in_use_high_water(), 0u);
  EXPECT_EQ(pool.free_count(), 0u);  // the free list holds released chunks
  void* a = pool.allocate(32);
  void* b = pool.allocate(32);
  void* c = pool.allocate(32);
  EXPECT_EQ(pool.in_use(), 3u);
  PayloadPool::release(b);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.free_count(), 1u);
  // A released chunk is reused before the never-used rest of the arena.
  EXPECT_EQ(pool.allocate(32), b);
  EXPECT_GT(reinterpret_cast<std::uintptr_t>(pool.allocate(32)),
            reinterpret_cast<std::uintptr_t>(c));
  EXPECT_EQ(pool.in_use(), 4u);
  EXPECT_EQ(pool.in_use_high_water(), 4u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  PayloadPool::release(a);
}

TEST(PayloadPool, MixedSizesStillFallBackToHeapAfterLazyCarve) {
  PayloadPool pool(/*capacity=*/4);
  pool.ensure_capacity(16, 32);
  void* pooled = pool.allocate(32);
  void* other = pool.allocate(96);  // not the chunk size -> heap fallback
  void* next = pool.allocate(32);
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  EXPECT_EQ(pool.in_use(), 2u);  // heap chunks are not arena occupancy
  EXPECT_GT(reinterpret_cast<std::uintptr_t>(next),
            reinterpret_cast<std::uintptr_t>(pooled));
  PayloadPool::release(other);  // frees to the heap, not the free list
  EXPECT_EQ(pool.free_count(), 0u);
  PayloadPool::release(pooled);
  PayloadPool::release(next);
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_EQ(pool.stats().releases, 2u);
}

TEST(MakePooled, RoundTripsThroughThreadLocalPool) {
  const auto& stats = pooled_stats<Payload>();
  const std::uint64_t pool_before = stats.pool_allocs;
  {
    std::shared_ptr<const Payload> boxed = make_pooled<Payload>(7u);
    EXPECT_EQ(boxed->a, 7u);
    EXPECT_EQ(boxed->b, ~std::uint64_t{7});
    EXPECT_EQ(stats.pool_allocs, pool_before + 1);
  }
  // Dropping the last handle returns the combined block to the pool.
  const std::uint64_t releases_after = stats.releases;
  std::shared_ptr<const Payload> next = make_pooled<Payload>(9u);
  EXPECT_EQ(stats.pool_allocs, pool_before + 2);
  EXPECT_GE(releases_after, 1u);
}

TEST(MakePooled, SteadyStateIsAllocationFree) {
  // Warm the pool, then box/release in a loop: every allocation must be
  // served from the free list (pool_allocs advances, heap_allocs does not).
  { auto warm = make_pooled<Payload>(0u); }
  const auto& stats = pooled_stats<Payload>();
  const std::uint64_t heap_before = stats.heap_allocs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto boxed = make_pooled<Payload>(i);
    ASSERT_EQ(boxed->a, i);
  }
  EXPECT_EQ(stats.heap_allocs, heap_before);
}

TEST(MakePooled, HandlesOutlivePoolPressure) {
  // Hold more live handles than the arena holds chunks; overflow handles
  // must be heap-backed and still destruct cleanly.
  std::vector<std::shared_ptr<const Payload>> live;
  const std::size_t n = PayloadPool::kDefaultCapacity + 64;
  live.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) live.push_back(make_pooled<Payload>(i));
  const auto& stats = pooled_stats<Payload>();
  EXPECT_GT(stats.heap_allocs, 0u);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(live[i]->a, i);
  live.clear();  // releases both pool and heap chunks without error
}

TEST(PoolAllocated, ObjectsRecycleThroughSizeClassPools) {
  struct Obj : PoolAllocated {
    std::uint64_t data[5] = {};
  };  // 40 bytes -> the 64-byte size class
  const auto& stats = sized_pool(sizeof(Obj)).stats();
  delete new Obj;  // warm the class (first call may carve the arena)
  const std::uint64_t pool_before = stats.pool_allocs;
  const std::uint64_t heap_before = stats.heap_allocs;
  for (int i = 0; i < 100; ++i) delete new Obj;
  EXPECT_EQ(stats.pool_allocs, pool_before + 100);
  EXPECT_EQ(stats.heap_allocs, heap_before);
}

TEST(PoolAllocated, OversizedObjectsBypassThePoolsSafely) {
  struct Big : PoolAllocated {
    char blob[2048] = {};  // above kSizeClassMax -> headered heap chunk
  };
  Big* big = new Big;
  big->blob[2047] = 'x';
  delete big;  // release dispatches on the null-owner header
}

// These two tests spell out libstdc++'s internal node types to reach the
// per-node-type pool counters; they pin the property the pooled aliases
// exist for (node recycling through the pool) on the toolchain this repo
// builds with.
TEST(PooledContainers, MapEraseInsertIsAllocationFreeInSteadyState) {
  // Container node types get their own per-thread pools; once warm, an
  // erase/insert cycle is a free-list round trip, not a heap one.
  using Map = PooledUnorderedMap<std::uint64_t, std::uint64_t>;
  using Node = std::__detail::_Hash_node<
      std::pair<const std::uint64_t, std::uint64_t>, false>;
  const auto& stats = payload_pool<NodePoolAllocator<Node>>().stats();
  Map map;
  for (std::uint64_t i = 0; i < 64; ++i) map.emplace(i, ~i);
  const std::uint64_t heap_before = stats.heap_allocs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.erase(i % 64);
    map.emplace(i % 64, i);
  }
  EXPECT_EQ(stats.heap_allocs, heap_before);
  EXPECT_GE(stats.pool_allocs, 1000u);
  EXPECT_EQ(map.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_TRUE(map.contains(i));
}

TEST(PooledContainers, ListAndSetUseDistinctPoolsForSameElementType) {
  // A list node and a hash-set node of the same element type have different
  // sizes; keying pools by the rebound node type keeps both on the pool
  // path instead of forcing one into the heap fallback.
  PooledList<std::uint64_t> list;
  PooledUnorderedSet<std::uint64_t> set;
  using ListNode = std::_List_node<std::uint64_t>;
  using SetNode = std::__detail::_Hash_node<std::uint64_t, false>;
  const auto& list_stats = payload_pool<NodePoolAllocator<ListNode>>().stats();
  const auto& set_stats = payload_pool<NodePoolAllocator<SetNode>>().stats();
  const std::uint64_t list_pool_before = list_stats.pool_allocs;
  const std::uint64_t set_pool_before = set_stats.pool_allocs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    list.push_back(i);
    set.insert(i);
  }
  EXPECT_EQ(list_stats.pool_allocs, list_pool_before + 100);
  EXPECT_EQ(set_stats.pool_allocs, set_pool_before + 100);
  EXPECT_EQ(list.size(), 100u);
  EXPECT_EQ(set.size(), 100u);
}

}  // namespace
}  // namespace rrnet::util
