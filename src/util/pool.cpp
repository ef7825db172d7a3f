#include "util/pool.h"

#include <array>
#include <cstring>
#include <mutex>

namespace discs::util {

namespace {

constexpr std::size_t kClassCount = Pool::kMaxPooled / Pool::kAlign;  // 32
constexpr std::size_t kSlabBytes = 64 * 1024;

// 0-based size class for a pooled request (bytes <= kMaxPooled, bytes > 0).
inline std::size_t class_of(std::size_t bytes) {
  return (bytes + Pool::kAlign - 1) / Pool::kAlign - 1;
}
inline std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * Pool::kAlign;
}

// Free blocks form intrusive singly-linked lists threaded through their
// own storage (every class is >= 16 bytes, enough for two pointers).
struct FreeNode {
  FreeNode* next;
  FreeNode* next_batch;  ///< in an orphaned batch's first node only
};

// Freelists handed over by threads that exited or released them, waiting
// for adoption: per size class, a stack of batches of at most one slab's
// worth of blocks each, so one thread cannot swallow blocks that several
// threads are waiting to reuse.  Touched only on release and when a live
// thread's freelist and slab both run dry.
struct OrphanStore {
  std::mutex mu;
  std::array<FreeNode*, kClassCount> batches{};

  // Pops one batch for `cls`, or null.
  FreeNode* take(std::size_t cls) {
    std::lock_guard<std::mutex> lock(mu);
    FreeNode* batch = batches[cls];
    if (batch) batches[cls] = batch->next_batch;
    return batch;
  }
  // Cuts the chain into batches, outside the lock so that a taker never
  // waits on the walk, and pushes them.
  void give(std::size_t cls, FreeNode* head) {
    if (!head) return;
    const std::size_t per_batch = kSlabBytes / class_bytes(cls);
    FreeNode* last = head;
    for (FreeNode* batch = head; batch != nullptr;) {
      FreeNode* tail = batch;
      for (std::size_t n = 1; n < per_batch && tail->next; ++n)
        tail = tail->next;
      FreeNode* rest = tail->next;
      tail->next = nullptr;
      batch->next_batch = rest;
      last = batch;
      batch = rest;
    }
    std::lock_guard<std::mutex> lock(mu);
    last->next_batch = batches[cls];
    batches[cls] = head;
  }
};

OrphanStore& orphans() {
  // Leaked on purpose: payloads may be destroyed during static teardown,
  // after function-local statics would have been destructed.
  static OrphanStore* store = new OrphanStore();
  return *store;
}

struct ThreadCache {
  std::array<FreeNode*, kClassCount> free{};
  char* slab_cur = nullptr;
  char* slab_end = nullptr;
  Pool::Stats stats;

  // Hands every freelist to the orphan store.
  void release() {
    for (std::size_t cls = 0; cls < kClassCount; ++cls) {
      orphans().give(cls, free[cls]);
      free[cls] = nullptr;
    }
  }

  ~ThreadCache() {
    // Recirculate everything this thread still holds.  The slab remainder
    // is donated as one block of the largest class it can hold; smaller
    // tails are abandoned (bounded by kMaxPooled per thread).
    release();
    while (slab_cur && slab_end - slab_cur >= static_cast<std::ptrdiff_t>(
                                                  Pool::kAlign)) {
      std::size_t room = static_cast<std::size_t>(slab_end - slab_cur);
      std::size_t cls = class_of(room < Pool::kMaxPooled ? room
                                                         : Pool::kMaxPooled);
      while (class_bytes(cls) > room) --cls;
      auto* node = reinterpret_cast<FreeNode*>(slab_cur);
      node->next = nullptr;
      orphans().give(cls, node);
      slab_cur += class_bytes(cls);
    }
  }

  void* carve(std::size_t cls) {
    const std::size_t want = class_bytes(cls);
    if (static_cast<std::size_t>(slab_end - slab_cur) < want) {
      // Before burning a new slab, adopt an orphaned batch if one exists.
      if (FreeNode* batch = orphans().take(cls)) {
        free[cls] = batch->next;
        ++stats.orphan_refills;
        return batch;
      }
      // Donate the unusable remainder of the old slab to its best class.
      while (slab_cur &&
             static_cast<std::size_t>(slab_end - slab_cur) >= Pool::kAlign) {
        std::size_t room = static_cast<std::size_t>(slab_end - slab_cur);
        std::size_t c = class_of(room < Pool::kMaxPooled ? room
                                                         : Pool::kMaxPooled);
        while (class_bytes(c) > room) --c;
        auto* node = reinterpret_cast<FreeNode*>(slab_cur);
        node->next = free[c];
        free[c] = node;
        slab_cur += class_bytes(c);
      }
      // Immortal slab: never freed (see header).
      slab_cur = static_cast<char*>(
          ::operator new(kSlabBytes, std::align_val_t(Pool::kAlign)));
      slab_end = slab_cur + kSlabBytes;
      stats.slab_bytes += kSlabBytes;
    }
    void* p = slab_cur;
    slab_cur += want;
    ++stats.slab_carves;
    return p;
  }
};

ThreadCache& cache() {
  static thread_local ThreadCache tc;
  return tc;
}

}  // namespace

void* Pool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooled) {
    ++cache().stats.fallbacks;
    return ::operator new(bytes);
  }
  ThreadCache& tc = cache();
  const std::size_t cls = class_of(bytes);
  if (FreeNode* node = tc.free[cls]) {
    tc.free[cls] = node->next;
    ++tc.stats.freelist_hits;
    return node;
  }
  return tc.carve(cls);
}

void Pool::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooled) {
    ::operator delete(p);
    return;
  }
  // Cross-thread frees land on the *releasing* thread's freelist; safe
  // because the underlying slabs are immortal.
  ThreadCache& tc = cache();
  const std::size_t cls = class_of(bytes);
  auto* node = static_cast<FreeNode*>(p);
  node->next = tc.free[cls];
  tc.free[cls] = node;
}

void Pool::release_thread_cache() { cache().release(); }

Pool::Stats Pool::stats() { return cache().stats; }

}  // namespace discs::util
