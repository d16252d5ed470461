// Sparse per-forest vertex directory: activation on first touch instead
// of dense per-vertex arrays, which would cost O(n) PER MATERIALIZED
// LEVEL. The HDT invariant makes levels below the top progressively tiny,
// so a forest's per-vertex state is keyed by the vertices actually touched
// by a level-i edge instead of by the address space:
//
//   * a root table of ceil(n / kSpan) atomic chunk pointers (8 bytes per
//     kSpan vertices — the only n-proportional cost, 1-2 bits/vertex);
//   * pool-allocated chunks of kSpan slots each, installed by CAS on first
//     activation in their range. Chunks are NEVER moved or reallocated, so
//     &slot stays stable for as long as its chunk lives;
//   * per-chunk occupancy (bitmap + live count) so a chunk whose last slot
//     deactivates can be freed. Freeing is deferred: parallel batch phases
//     only RECORD empty chunks (a racing activation in the same chunk must
//     never see its storage freed under it), and the forest sweeps the
//     pending list from the single-threaded tail of each batch op,
//     returning the memory to the node pool.
//
// Concurrency contract (mirrors the forest's phase contract):
//   * activate/deactivate run only inside mutation batches, and at most
//     one thread touches a given vertex (the batches partition work by
//     vertex / by tour). Distinct vertices sharing a chunk may be touched
//     from different workers concurrently — all cross-slot chunk state is
//     atomic.
//   * find() is safe concurrently with the batch's activations and
//     deactivations of other vertices (acquire loads down the chain); it
//     sees either the pre- or post-state of a slot's PUBLICATION, never a
//     partially initialized slot, because activate() runs the caller's
//     init before setting the bitmap bit.
//   * sweep_pending() and for_each_active() require the single-threaded
//     tail (no batch phase in flight).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

template <typename Slot>
class vertex_directory {
 public:
  /// Slots per chunk, sized so a chunk fits the node pool's largest class
  /// (chunks ride the pool like the forest's blocks and tours).
  static constexpr uint32_t kSpanLog = sizeof(Slot) <= 8 ? 6 : 5;
  static constexpr uint32_t kSpan = 1u << kSpanLog;
  static constexpr uint32_t kMask = kSpan - 1;

  struct chunk {
    std::atomic<uint64_t> bitmap{0};  // bit i: slot i active
    std::atomic<uint32_t> live{0};    // popcount(bitmap), maintained
    Slot slots[kSpan];
  };
  static_assert(kSpan <= 64, "bitmap is one 64-bit word");
  static_assert(sizeof(chunk) <= node_pool::kMaxBytes,
                "chunks must be pool-allocatable");

  vertex_directory(vertex_id n, node_pool& pool)
      : pool_(&pool),
        n_(n),
        roots_((static_cast<size_t>(n) + kSpan - 1) / kSpan) {}

  vertex_directory(const vertex_directory&) = delete;
  vertex_directory& operator=(const vertex_directory&) = delete;

  // No destructor work: chunks are pool storage (the pool releases its
  // blocks wholesale) and Slot is trivially destructible.
  static_assert(std::is_trivially_destructible_v<Slot>);

  [[nodiscard]] vertex_id capacity() const { return n_; }

  /// The slot of an active vertex, or nullptr. Safe under concurrent
  /// mutation phases (see the contract above).
  [[nodiscard]] Slot* find(vertex_id v) const {
    assert(v < n_);
    chunk* c = roots_[v >> kSpanLog].load(std::memory_order_acquire);
    if (c == nullptr) return nullptr;
    if ((c->bitmap.load(std::memory_order_acquire) &
         (uint64_t{1} << (v & kMask))) == 0)
      return nullptr;
    return &c->slots[v & kMask];
  }

  [[nodiscard]] bool active(vertex_id v) const { return find(v) != nullptr; }

  /// Activates `v` (installing its chunk if absent) and returns its slot.
  /// On a FRESH activation, `init(slot)` runs before the slot is
  /// published, so a concurrent find() never observes a half-built slot;
  /// an already-active vertex returns its slot untouched. Only the thread
  /// owning `v`'s batch partition may call this.
  template <typename Init>
  Slot& activate(vertex_id v, Init&& init) {
    assert(v < n_);
    chunk* c = ensure_chunk(v >> kSpanLog);
    const uint32_t idx = v & kMask;
    const uint64_t bit = uint64_t{1} << idx;
    if ((c->bitmap.load(std::memory_order_acquire) & bit) != 0)
      return c->slots[idx];
    init(c->slots[idx]);
    c->bitmap.fetch_or(bit, std::memory_order_release);
    c->live.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    return c->slots[idx];
  }

  /// Deactivates `v`. If this empties the chunk, the chunk is queued for
  /// sweep_pending() — never freed inline, because a racing activation of
  /// a sibling slot may be touching it.
  void deactivate(vertex_id v) {
    assert(v < n_);
    const size_t ci = v >> kSpanLog;
    chunk* c = roots_[ci].load(std::memory_order_acquire);
    assert(c != nullptr && "deactivating a vertex with no chunk");
    const uint64_t bit = uint64_t{1} << (v & kMask);
    [[maybe_unused]] uint64_t prev =
        c->bitmap.fetch_and(~bit, std::memory_order_release);
    assert((prev & bit) != 0 && "deactivating an inactive vertex");
    active_.fetch_sub(1, std::memory_order_relaxed);
    if (c->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_.push_back(static_cast<uint32_t>(ci));
    }
  }

  /// Frees the chunks that were emptied by earlier deactivations and are
  /// STILL empty (a re-activation in between keeps the chunk). Call from
  /// the single-threaded tail of a batch op.
  void sweep_pending() {
    std::vector<uint32_t> pending;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending.swap(pending_);
    }
    for (uint32_t ci : pending) {
      chunk* c = roots_[ci].load(std::memory_order_relaxed);
      if (c == nullptr) continue;  // duplicate entry, already swept
      if (c->live.load(std::memory_order_relaxed) != 0) continue;
      roots_[ci].store(nullptr, std::memory_order_release);
      chunks_.fetch_sub(1, std::memory_order_relaxed);
      pool_->deallocate(c, sizeof(chunk));
    }
  }

  /// Visits every active (vertex, slot), ascending by vertex. Requires
  /// quiescence (diagnostics / consistency checks).
  template <typename F>
  void for_each_active(F&& f) const {
    for (size_t ci = 0; ci < roots_.size(); ++ci) {
      chunk* c = roots_[ci].load(std::memory_order_acquire);
      if (c == nullptr) continue;
      uint64_t bm = c->bitmap.load(std::memory_order_acquire);
      while (bm != 0) {
        const uint32_t idx = static_cast<uint32_t>(std::countr_zero(bm));
        bm &= bm - 1;
        f(static_cast<vertex_id>(ci * kSpan + idx), c->slots[idx]);
      }
    }
  }

  [[nodiscard]] uint64_t active_count() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Bytes this directory currently retains: the fixed root table plus
  /// the installed chunks. O(1).
  [[nodiscard]] size_t resident_bytes() const {
    return root_bytes() +
           static_cast<size_t>(chunks_.load(std::memory_order_relaxed)) *
               sizeof(chunk);
  }

  /// Bytes of the root table alone: the one part of the directory that is
  /// not pool storage (chunks are counted by the pool's retained bytes).
  [[nodiscard]] size_t root_bytes() const {
    return roots_.capacity() * sizeof(roots_[0]);
  }

  [[nodiscard]] uint64_t chunk_count() const {
    return chunks_.load(std::memory_order_relaxed);
  }

  /// Structural self-check (quiescent callers). Empty string if healthy.
  [[nodiscard]] std::string check_consistency() const {
    uint64_t total = 0;
    for (size_t ci = 0; ci < roots_.size(); ++ci) {
      chunk* c = roots_[ci].load(std::memory_order_acquire);
      if (c == nullptr) continue;
      const uint64_t bm = c->bitmap.load(std::memory_order_relaxed);
      const uint32_t live = c->live.load(std::memory_order_relaxed);
      if (static_cast<uint32_t>(std::popcount(bm)) != live)
        return "directory chunk bitmap/live mismatch";
      total += live;
    }
    if (total != active_count()) return "directory active-count mismatch";
    return "";
  }

 private:
  chunk* ensure_chunk(size_t ci) {
    chunk* c = roots_[ci].load(std::memory_order_acquire);
    if (c != nullptr) return c;
    void* mem = pool_->allocate(sizeof(chunk));
    chunk* fresh = new (mem) chunk();
    chunk* expected = nullptr;
    if (roots_[ci].compare_exchange_strong(expected, fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      chunks_.fetch_add(1, std::memory_order_relaxed);
      return fresh;
    }
    // Lost the install race; the fresh chunk was never published.
    pool_->deallocate(fresh, sizeof(chunk));
    return expected;
  }

  node_pool* pool_;
  vertex_id n_;
  std::vector<std::atomic<chunk*>> roots_;
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> chunks_{0};
  std::mutex pending_mutex_;
  std::vector<uint32_t> pending_;  // chunk indices that hit live == 0
};

}  // namespace bdc
