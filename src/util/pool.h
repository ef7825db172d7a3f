// Thread-local size-class pool allocator for simulator hot-path objects.
//
// Every simulated event allocates: a Payload control block per send, list
// nodes for the in-flight set, vectors for income buffers and trace
// records.  Under the Monte-Carlo and bench workloads these allocations are
// the single largest wall-clock cost (they are invisible to gprof, which
// only samples user code — see docs/PERFORMANCE.md), so the hot paths
// allocate through this pool instead of the global heap.
//
// Design:
//   * Size classes in 16-byte steps up to 512 bytes; larger requests fall
//     through to operator new.
//   * Each thread owns per-class freelists fed by 64 KiB bump-carved slabs.
//     Allocation is: pop freelist, else carve slab — no locks, no syscalls.
//   * Slabs are IMMORTAL: once carved they are never returned to the OS.
//     This makes cross-thread frees safe by construction — a shared_ptr
//     payload allocated on a Monte-Carlo worker may be released by the main
//     thread; the block simply migrates to the releasing thread's freelist.
//     "Leaking" slabs at exit is deliberate and keeps every deallocation
//     path wait-free.
//   * A migrated block can only be reused by the thread that freed it.  So
//     when a thread exits, or calls release_thread_cache(), its freelists
//     go to a global orphan store, cut into batches of at most one slab's
//     worth (one mutex, touched only then and on slab-exhaustion slow
//     paths).  A thread whose freelist and slab are both empty adopts one
//     batch before it carves a fresh slab, so pooled memory recirculates
//     across threads and across the Monte-Carlo harness's worker
//     generations.
//   * The footprint is therefore bounded only where freed blocks reach a
//     thread that allocates again.  Rule: a thread that frees blocks other
//     threads allocated, and then stops allocating that kind of object,
//     calls release_thread_cache() when it is done.  rt::run does so before
//     it returns: its engine threads allocate the capture and the calling
//     thread frees it.  Without that, slabs grew with every captured run
//     and never leveled off.
//
// The pool changes WHERE bytes live, never WHAT the simulator computes:
// digests, traces and Table-1 outputs are byte-identical with the pool on
// or off (tests/test_hotpath_identity.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace discs::util {

class Pool {
 public:
  /// Largest request served from the pool; bigger ones use operator new.
  static constexpr std::size_t kMaxPooled = 512;
  /// All pooled blocks are 16-byte aligned (size classes are 16-byte steps).
  static constexpr std::size_t kAlign = 16;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  /// Hands the calling thread's free blocks to the orphan store, where any
  /// thread out of blocks adopts them (see the header comment for when to
  /// call it).  The thread keeps its current slab.
  static void release_thread_cache();

  /// Per-thread counters, for the PERFORMANCE.md playbook and the bench
  /// reports.  Monotonic within a thread.
  struct Stats {
    std::uint64_t freelist_hits = 0;   ///< served by popping a freelist
    std::uint64_t slab_carves = 0;     ///< served by bump-carving a slab
    std::uint64_t orphan_refills = 0;  ///< batches of freed blocks (one
                                       ///< slab's worth at most) adopted
                                       ///< from the orphan store
    std::uint64_t fallbacks = 0;       ///< > kMaxPooled, went to operator new
    std::uint64_t slab_bytes = 0;      ///< slab memory this thread carved
  };
  static Stats stats();
};

/// Minimal std allocator over Pool, for allocate_shared payload control
/// blocks and pooled containers.  Stateless: all instances are equal.
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(Pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    Pool::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace discs::util
