// Fixed-capacity free-list pool for boxed immutable payloads.
//
// Relay packets (net::Packet) and MAC frame payloads travel through the
// simulator as `std::shared_ptr<const T>`: one control+payload block per
// boxed object, allocated with make_shared and freed when the last frame
// or pending callback drops it. Those were the last per-event heap
// allocations in the fig1/fig3 scenario benches (~0.06–0.08 allocs/event).
//
// PayloadPool removes them: make_pooled<T>(...) routes allocate_shared's
// single combined block through a thread-local free-list arena, so in
// steady state boxing a payload is a pointer pop and releasing it a
// pointer push. Key properties:
//
//  * Fallback, never failure: when the arena is exhausted, chunks come
//    from operator new. Every chunk carries a header naming its owner
//    pool (nullptr for heap chunks), so release is branch-on-header and
//    mixed pool/heap populations coexist safely.
//  * Thread-local by construction: replication workers are shared-nothing
//    (sim::ScenarioResult is plain data), so pooled handles never cross
//    threads and the pools need no locks. Each pool frees its arena at
//    thread exit; outstanding heap-fallback chunks free themselves.
//  * Lazy chunk sizing: allocate_shared's combined block size (control
//    block + T) is an implementation detail, so the arena is carved on
//    the first allocation, when the size is known. Requests of any other
//    size (e.g. a different T rebound through the same allocator) take
//    the heap path.
//  * Lazy carve: a carve reserves address space only. Chunks are handed
//    out from a bump range in ascending address order, and the free list
//    holds released chunks alone, so reserving arenas for a million node
//    stacks touches none of their pages until the stacks are built.
//
// make_pooled keeps the `std::shared_ptr<const T>` handle type for callers
// that want shared immutable state without intrusive refcounts; the packet
// path itself uses the intrusive net::PacketBuffer on a raw PayloadPool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rrnet::util {

struct PoolStats {
  std::uint64_t pool_allocs = 0;  ///< chunks served from the free list
  std::uint64_t heap_allocs = 0;  ///< fallback operator-new chunks
  std::uint64_t releases = 0;     ///< chunks returned (either kind)
};

// Default arena capacity (chunks per pool), overridable per build:
//   cmake -DCMAKE_CXX_FLAGS=-DRRNET_POOL_ARENA_CAPACITY=1024
// Every thread-local pool (size classes, payload pools, the PacketBuffer
// pool) carves kDefaultCapacity chunks on first use, so this knob bounds
// the per-worker arena footprint of parallel replication (the audit table
// lives in DESIGN.md, "Memory footprint").
#ifndef RRNET_POOL_ARENA_CAPACITY
#define RRNET_POOL_ARENA_CAPACITY 4096
#endif

class PayloadPool {
 public:
  static constexpr std::size_t kDefaultCapacity = RRNET_POOL_ARENA_CAPACITY;
  static_assert(kDefaultCapacity > 0,
                "RRNET_POOL_ARENA_CAPACITY must be positive");

  /// Chunk payload size is fixed on the first allocate() call.
  explicit PayloadPool(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  ~PayloadPool() {
    for (const Range& arena : arenas_) ::operator delete(arena.base);
  }

  /// Grow the pool so at least `chunks` chunks of `payload_bytes` exist in
  /// total, carving one additional arena for the shortfall. Fixes the chunk
  /// size if no allocation has happened yet; a size mismatch with an
  /// already-sized pool is ignored (those requests heap-fall-back anyway).
  /// Large-n scenario builders call this up front so a node stack built at
  /// any point of a run comes from an arena, never from the heap. A carve
  /// only reserves address space: no page is touched until its chunk is
  /// handed out.
  void ensure_capacity(std::size_t chunks, std::size_t payload_bytes) {
    if (chunks == 0 || payload_bytes == 0) return;
    if (chunk_bytes_ == 0) {
      carve_arena(payload_bytes, std::max(chunks, capacity_));
      return;
    }
    if (payload_bytes != chunk_bytes_ || chunks <= carved_) return;
    carve_arena(chunk_bytes_, chunks - carved_);
  }

  /// Allocate `bytes` of payload. Pool-served when `bytes` matches the
  /// pool's chunk size and a released or never-used chunk exists; heap
  /// otherwise. Released chunks go first (LIFO), then the carved ranges in
  /// ascending address order.
  void* allocate(std::size_t bytes) {
    if (chunk_bytes_ == 0 && bytes > 0) carve_arena(bytes, capacity_);
    if (bytes == chunk_bytes_) {
      Header* h = nullptr;
      if (!free_.empty()) {
        h = free_.back();
        free_.pop_back();
      } else {
        h = take_fresh();
      }
      if (h != nullptr) {
        ++stats_.pool_allocs;
        ++in_use_;
        if (in_use_ > in_use_high_water_) in_use_high_water_ = in_use_;
        return h + 1;
      }
    }
    ++stats_.heap_allocs;
    return allocate_unpooled(bytes);
  }

  /// A headered heap chunk releasable via release(), owned by no pool.
  static void* allocate_unpooled(std::size_t bytes) {
    Header* h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->owner = nullptr;
    return h + 1;
  }

  /// Return a chunk obtained from any PayloadPool's allocate().
  static void release(void* p) noexcept {
    Header* h = static_cast<Header*>(p) - 1;
    if (h->owner != nullptr) {
      ++h->owner->stats_.releases;
      --h->owner->in_use_;
      h->owner->free_.push_back(h);
    } else {
      ::operator delete(h);
    }
  }

  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
  /// Total pooled chunks: carved (reserved) so far, or the first-carve size
  /// if the chunk size is not yet known.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return carved_ > 0 ? carved_ : capacity_;
  }
  /// Released chunks waiting for reuse (never-used carved chunks are not
  /// on the free list).
  [[nodiscard]] std::size_t free_count() const noexcept {
    return free_.size();
  }
  /// Arena chunks currently handed out (heap-fallback chunks not counted).
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  /// Deepest the arena occupancy has ever been since the last reset.
  [[nodiscard]] std::size_t in_use_high_water() const noexcept {
    return in_use_high_water_;
  }
  /// Restart the occupancy high-water at the current level. Thread-local
  /// pools outlive individual simulation runs, so per-run gauges must reset
  /// at run start to stay deterministic under replication reuse.
  void reset_high_water() noexcept { in_use_high_water_ = in_use_; }

 private:
  struct alignas(std::max_align_t) Header {
    PayloadPool* owner;
  };

  /// One carved arena; [next, end) is the part never handed out.
  struct Range {
    std::byte* base;
    std::byte* next;
    std::byte* end;
  };

  void carve_arena(std::size_t payload_bytes, std::size_t count) {
    // Round the stride so every chunk's payload is max_align_t-aligned.
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    stride_ = sizeof(Header) + ((payload_bytes + kAlign - 1) / kAlign) * kAlign;
    chunk_bytes_ = payload_bytes;
    // Reserve only: the headers are written as chunks are handed out, so
    // the pages of chunks never used are never touched.
    auto* arena = static_cast<std::byte*>(::operator new(stride_ * count));
    arenas_.push_back({arena, arena, arena + stride_ * count});
    carved_ += count;
    // Room for every chunk to come back: release() never reallocates.
    free_.reserve(carved_);
  }

  /// The next never-used chunk, in carve order and ascending address order
  /// within an arena, or null once every carved chunk has been handed out.
  Header* take_fresh() noexcept {
    for (; fresh_ < arenas_.size(); ++fresh_) {
      Range& arena = arenas_[fresh_];
      if (arena.next == arena.end) continue;
      Header* h = reinterpret_cast<Header*>(arena.next);
      arena.next += stride_;
      h->owner = this;
      return h;
    }
    return nullptr;
  }

  std::size_t capacity_;
  std::size_t chunk_bytes_ = 0;  ///< fixed by the first allocation
  std::size_t stride_ = 0;       ///< header + payload, rounded
  std::size_t carved_ = 0;       ///< total chunks across all arenas
  std::vector<Range> arenas_;
  std::size_t fresh_ = 0;        ///< first arena with never-used chunks
  std::vector<Header*> free_;    ///< released chunks only
  PoolStats stats_;
  std::size_t in_use_ = 0;
  std::size_t in_use_high_water_ = 0;
};

/// Minimal allocator front-end so std::allocate_shared places its combined
/// control-block+payload node in the pool. Rebound copies share the pool.
template <typename T>
class PooledAllocator {
 public:
  using value_type = T;

  explicit PooledAllocator(PayloadPool* pool) noexcept : pool_(pool) {}
  template <typename U>
  PooledAllocator(const PooledAllocator<U>& other) noexcept
      : pool_(other.pool_) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { PayloadPool::release(p); }

  template <typename U>
  bool operator==(const PooledAllocator<U>& other) const noexcept {
    return pool_ == other.pool_;
  }

  PayloadPool* pool_;
};

/// The per-payload-type, per-thread pool used by make_pooled<T>.
template <typename T>
PayloadPool& payload_pool() {
  thread_local PayloadPool pool;
  return pool;
}

/// Counters for the calling thread's T-pool (tests and benches).
template <typename T>
const PoolStats& pooled_stats() {
  return payload_pool<T>().stats();
}

/// Box an immutable payload in the calling thread's T-pool. Drop-in for
/// `std::make_shared<const T>(...)` on hot paths.
template <typename T, typename... Args>
std::shared_ptr<const T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PooledAllocator<T>(&payload_pool<T>()),
                                 std::forward<Args>(args)...);
}

/// Size-class pools for whole objects (64-byte steps up to 1 KiB). Every
/// class that inherits PoolAllocated shares these, so per-scenario object
/// churn (nodes, MACs, transceivers, protocols) recycles through free
/// lists instead of the heap once the classes are warm.
inline constexpr std::size_t kSizeClassStep = 64;
inline constexpr std::size_t kSizeClassMax = 1024;

/// The calling thread's pool for the size class covering `bytes`
/// (bytes <= kSizeClassMax). Exposed for tests.
inline PayloadPool& sized_pool(std::size_t bytes) {
  thread_local PayloadPool pools[kSizeClassMax / kSizeClassStep];
  return pools[(bytes + kSizeClassStep - 1) / kSizeClassStep - 1];
}

inline void* sized_allocate(std::size_t bytes) {
  if (bytes == 0 || bytes > kSizeClassMax) {
    return PayloadPool::allocate_unpooled(bytes);
  }
  const std::size_t rounded =
      ((bytes + kSizeClassStep - 1) / kSizeClassStep) * kSizeClassStep;
  return sized_pool(bytes).allocate(rounded);
}

/// Inherit (empty base) to route a class's `new`/`delete` through the
/// thread's size-class pools. Covers derived classes too — a polymorphic
/// delete through a base pointer reaches the header-driven release, and
/// differently-sized siblings simply land in different size classes.
/// Pool-allocated objects must be deleted on the thread that created them.
struct PoolAllocated {
  static void* operator new(std::size_t bytes) { return sized_allocate(bytes); }
  static void operator delete(void* p) noexcept { PayloadPool::release(p); }
};

/// An id-indexed table of objects it owns, built one at a time in any id
/// order. It remembers the build order: walks follow it (objects built one
/// after another sit next to each other in pool memory), and the objects
/// are deleted in its reverse, so the pools' LIFO free lists hand the next
/// build on this thread ascending addresses, as a fresh carve does.
template <typename T>
class BuildOrderTable {
 public:
  BuildOrderTable() = default;
  ~BuildOrderTable() {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) delete *it;
  }
  BuildOrderTable(const BuildOrderTable&) = delete;
  BuildOrderTable& operator=(const BuildOrderTable&) = delete;

  /// Set the id range of an empty table.
  void resize(std::size_t n) { by_id_.assign(n, nullptr); }
  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }
  /// The object of `id`, or null while it is not built.
  [[nodiscard]] T* get(std::uint32_t id) const noexcept { return by_id_[id]; }
  /// Every held object, in build order.
  [[nodiscard]] const std::vector<T*>& in_build_order() const noexcept {
    return order_;
  }

  /// Take ownership of the newly built object of an unbuilt `id`.
  T& insert(std::uint32_t id, std::unique_ptr<T> object) {
    T* raw = object.release();
    by_id_[id] = raw;
    order_.push_back(raw);
    return *raw;
  }

 private:
  std::vector<T*> by_id_;
  std::vector<T*> order_;
};

}  // namespace rrnet::util
