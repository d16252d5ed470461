// Per-worker pooled node allocation for the Euler-tour forests (blocked
// tours' blocks and tour descriptors, and their directory chunks).
//
// A forest allocates and frees huge numbers of small nodes: batch_link
// grows and splices blocks, batch_cut splits and releases them, and a
// long-running stream churns through millions. Routing each node through
// the global heap costs a malloc/free round trip per node and scatters the
// tour across the address space. This pool instead:
//
//   * carves nodes out of 64 KiB blocks owned by the pool, rounded up to
//     16-byte size classes;
//   * keeps one freelist array and one bump cursor PER SCHEDULER WORKER,
//     so the hot allocate/deallocate paths touch no shared state. A
//     worker's cursor spans an 8 KiB run handed out from one shared carve
//     block, not a whole block of its own: a sparsely used pool touched
//     by P workers then holds one partly carved block, not P. Under
//     the library's phase-concurrency contract, concurrent allocation on
//     one pool only ever comes from distinct scheduler workers (slot 0 is
//     the external driver, slots 1..P-1 the pool threads), so per-worker
//     state needs no synchronization;
//   * recycles freed nodes across batches via the freeing worker's
//     freelist — a cut-then-relink workload reuses hot memory. A worker
//     keeps at most 2 * kSpillNodes free nodes per size class: past
//     that, the colder half moves to a shared depot as one chain, and a
//     worker whose freelist is empty takes a chain from the depot before
//     carving fresh memory. Without the depot, nodes allocated on one
//     worker and freed on another never come back, and a multi-worker
//     pool grows without bound under steady churn;
//   * returns blocks to the OS on pool destruction, or earlier through
//     trim() (full reset once outstanding() == 0).
//
// Thread-safety ladder:
//   allocate / deallocate — per-worker, phase-concurrent.
//   stats()               — safe anytime (atomic counters); the block
//                           counts are taken under blocks_mutex_.
//   trim                  — requires MUTATION quiescence (no allocation
//                           or free in flight on any thread).
//
// A thread whose worker id exceeds the slot count frozen at construction
// (possible when set_num_workers grows the pool afterwards) falls back to a
// mutex-guarded overflow slot; correctness never depends on the fast path.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "parallel/scheduler.hpp"

namespace bdc {

class node_pool {
 public:
  static constexpr size_t kGranularity = 16;       // size-class step (bytes)
  static constexpr size_t kMaxBytes = 1024;        // largest pooled node
  static constexpr size_t kBlockBytes = 64 * 1024; // OS unit (aligned)
  static constexpr size_t kRunBytes = 8 * 1024;    // per-worker carve unit
  static constexpr uint32_t kSpillNodes = 32;      // nodes per depot chain
  static_assert(kRunBytes >= kMaxBytes, "a run must fit the largest node");

  struct stats_snapshot {
    uint64_t fresh = 0;     // nodes served by carving new block space
    uint64_t recycled = 0;  // nodes served from a freelist
    uint64_t freed = 0;     // nodes returned to the pool
    uint64_t blocks = 0;    // blocks currently owned
    uint64_t spare_blocks = 0;    // owned blocks currently uncarved
    uint64_t trimmed_bytes = 0;   // total bytes released by trim()
    /// Nodes currently live (allocations minus frees).
    [[nodiscard]] uint64_t outstanding() const {
      return fresh + recycled - freed;
    }
    /// Bytes currently retained from the OS.
    [[nodiscard]] uint64_t retained_bytes() const {
      return blocks * kBlockBytes;
    }
    stats_snapshot& operator+=(const stats_snapshot& o) {
      fresh += o.fresh;
      recycled += o.recycled;
      freed += o.freed;
      blocks += o.blocks;
      spare_blocks += o.spare_blocks;
      trimmed_bytes += o.trimmed_bytes;
      return *this;
    }
  };

  node_pool() : slots_(num_workers() == 0 ? 1 : num_workers()),
                workers_(slots_) {}

  node_pool(const node_pool&) = delete;
  node_pool& operator=(const node_pool&) = delete;

  ~node_pool() {
    for (void* b : blocks_) release_block(b);
  }

  /// Allocates `bytes` (<= kMaxBytes) of 16-byte-aligned storage.
  void* allocate(size_t bytes) {
    size_t cls = size_class(bytes);
    unsigned w = worker_id();
    if (w < slots_) return allocate_from(workers_[w], cls);
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    return allocate_from(overflow_, cls);
  }

  /// Returns storage obtained from allocate(bytes) to the pool. The caller
  /// guarantees no other thread can still reach it.
  void deallocate(void* p, size_t bytes) {
    size_t cls = size_class(bytes);
    unsigned w = worker_id();
    if (w < slots_) {
      push_free(workers_[w], cls, p);
      return;
    }
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    push_free(overflow_, cls, p);
  }

  /// Aggregated counters. Consistency contract, field by field:
  ///
  ///   * POINT-IN-TIME, NOT ATOMIC. Each field is read independently
  ///     (per-worker relaxed atomics summed, plus one mutex-guarded read
  ///     of the block lists), so the snapshot as a whole is NOT a
  ///     consistent cut: a concurrent allocate can land between reading
  ///     `fresh` and `freed`, making derived values like outstanding()
  ///     transiently off by the in-flight amount. No field is ever torn
  ///     and no read races (TSan-clean) — the snapshot is approximate,
  ///     never corrupt.
  ///   * Monotone fields (fresh, recycled, freed, trimmed_bytes) never
  ///     decrease; a mid-batch snapshot is a valid lower bound for each of
  ///     them individually.
  ///   * EXACT when no allocation/free/trim is concurrently in flight —
  ///     e.g. between update batches, which is when stream_runner and the
  ///     telemetry collectors sample it.
  ///
  /// Deliberately requires NO writer quiescence and must stay that way:
  /// it is the monitoring probe for live systems. Only trim(), which
  /// MOVES memory, needs quiescence, because it would free nodes a
  /// concurrent mutator could still touch.
  [[nodiscard]] stats_snapshot stats() const {
    stats_snapshot s;
    auto add = [&](const worker_state& ws) {
      s.fresh += ws.fresh.load(std::memory_order_relaxed);
      s.recycled += ws.recycled.load(std::memory_order_relaxed);
      s.freed += ws.freed.load(std::memory_order_relaxed);
    };
    for (const worker_state& ws : workers_) add(ws);
    add(overflow_);
    {
      std::lock_guard<std::mutex> lock(blocks_mutex_);
      s.blocks = blocks_.size();
      s.spare_blocks = spare_.size();
    }
    s.trimmed_bytes = trimmed_bytes_.load(std::memory_order_relaxed);
    return s;
  }

  /// High-watermark trimming. Requires mutation quiescence. When every
  /// node has been returned (outstanding() == 0) the carved blocks are
  /// all reclaimable: per-worker freelists and cursors are reset, up to
  /// `keep_bytes` of blocks are retained as spares for the next burst,
  /// and the rest go back to the OS. With nodes still live, blocks cannot
  /// all move and the call is a no-op. Returns the bytes released.
  size_t trim(size_t keep_bytes = 0) {
    if (stats().outstanding() != 0) return 0;
    auto reset = [](worker_state& ws) {
      ws.freelist.fill(nullptr);
      ws.nfree.fill(0);
      ws.cursor = nullptr;
      ws.remaining = 0;
    };
    for (worker_state& ws : workers_) reset(ws);
    reset(overflow_);
    {
      std::lock_guard<std::mutex> lock(depot_mutex_);
      for (size_t cls = 0; cls < kNumClasses; ++cls) {
        depot_[cls].clear();
        depot_chains_[cls].store(0, std::memory_order_relaxed);
      }
    }
    size_t keep_blocks = (keep_bytes + kBlockBytes - 1) / kBlockBytes;
    size_t released = 0;
    {
      std::lock_guard<std::mutex> lock(blocks_mutex_);
      shared_cursor_ = nullptr;
      shared_remaining_ = 0;
      while (blocks_.size() > keep_blocks) {
        release_block(blocks_.back());
        blocks_.pop_back();
        released += kBlockBytes;
      }
      spare_ = blocks_;  // every kept block is uncarved again
    }
    trimmed_bytes_.fetch_add(released, std::memory_order_relaxed);
    return released;
  }

 private:
  static constexpr size_t kNumClasses = kMaxBytes / kGranularity;

  struct alignas(64) worker_state {
    std::array<void*, kNumClasses> freelist{};
    std::array<uint32_t, kNumClasses> nfree{};  // nodes on each freelist
    char* cursor = nullptr;
    size_t remaining = 0;
    std::atomic<uint64_t> fresh{0};
    std::atomic<uint64_t> recycled{0};
    std::atomic<uint64_t> freed{0};
  };

  static size_t size_class(size_t bytes) {
    assert(bytes > 0 && bytes <= kMaxBytes);
    return (bytes + kGranularity - 1) / kGranularity - 1;
  }

  static void* acquire_block() {
    return ::operator new(kBlockBytes, std::align_val_t{kBlockBytes});
  }
  static void release_block(void* b) {
    ::operator delete(b, std::align_val_t{kBlockBytes});
  }

  /// A chain of free nodes of one class parked in the depot.
  struct chain {
    void* head;
    uint32_t n;
  };

  void* allocate_from(worker_state& ws, size_t cls) {
    if (ws.freelist[cls] == nullptr &&
        depot_chains_[cls].load(std::memory_order_relaxed) > 0)
      take_chain(ws, cls);
    if (void* p = ws.freelist[cls]) {
      ws.freelist[cls] = *static_cast<void**>(p);
      --ws.nfree[cls];
      ws.recycled.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
    size_t bytes = (cls + 1) * kGranularity;
    if (ws.remaining < bytes) carve_run(ws, bytes);
    void* p = ws.cursor;
    ws.cursor += bytes;
    ws.remaining -= bytes;
    ws.fresh.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  /// Extends ws's cursor by the next run of the shared carve block, moving
  /// that cursor to a spare (retained by trim()) or new block once fewer
  /// than `bytes` remain. ws's old tail is kept when the run continues it
  /// (no other worker carved in between, as always with one worker) and
  /// is abandoned in its block otherwise.
  void carve_run(worker_state& ws, size_t bytes) {
    std::lock_guard<std::mutex> lock(blocks_mutex_);
    if (ws.cursor == nullptr || ws.cursor + ws.remaining != shared_cursor_)
      ws.remaining = 0;
    if (ws.remaining + shared_remaining_ < bytes) {
      char* b = nullptr;
      if (!spare_.empty()) {
        b = static_cast<char*>(spare_.back());
        spare_.pop_back();
      } else {
        b = static_cast<char*>(acquire_block());
        blocks_.push_back(b);
      }
      shared_cursor_ = b;
      shared_remaining_ = kBlockBytes;
      ws.remaining = 0;
    }
    if (ws.remaining == 0) ws.cursor = shared_cursor_;
    const size_t run = std::min(kRunBytes, shared_remaining_);
    ws.remaining += run;
    shared_cursor_ += run;
    shared_remaining_ -= run;
  }

  void push_free(worker_state& ws, size_t cls, void* p) {
    *static_cast<void**>(p) = ws.freelist[cls];
    ws.freelist[cls] = p;
    ws.freed.fetch_add(1, std::memory_order_relaxed);
    if (++ws.nfree[cls] >= 2 * kSpillNodes) spill_chain(ws, cls);
  }

  /// Moves every node of ws's freelist past the first kSpillNodes (the
  /// coldest ones: the list is LIFO) to the depot as one chain.
  void spill_chain(worker_state& ws, size_t cls) {
    void* last_kept = ws.freelist[cls];
    for (uint32_t i = 1; i < kSpillNodes; ++i)
      last_kept = *static_cast<void**>(last_kept);
    void*& rest = *static_cast<void**>(last_kept);
    const chain c{rest, ws.nfree[cls] - kSpillNodes};
    rest = nullptr;
    ws.nfree[cls] = kSpillNodes;
    std::lock_guard<std::mutex> lock(depot_mutex_);
    depot_[cls].push_back(c);
    depot_chains_[cls].fetch_add(1, std::memory_order_relaxed);
  }

  /// Refills ws's empty freelist of class cls with a depot chain, if any.
  void take_chain(worker_state& ws, size_t cls) {
    std::lock_guard<std::mutex> lock(depot_mutex_);
    auto& chains = depot_[cls];
    if (chains.empty()) return;
    ws.freelist[cls] = chains.back().head;
    ws.nfree[cls] = chains.back().n;
    chains.pop_back();
    depot_chains_[cls].fetch_sub(1, std::memory_order_relaxed);
  }

  size_t slots_;
  std::vector<worker_state> workers_;
  worker_state overflow_;
  std::mutex overflow_mutex_;
  mutable std::mutex blocks_mutex_;
  std::vector<void*> blocks_;  // every block owned (freed in the dtor)
  std::vector<void*> spare_;   // subset of blocks_ currently uncarved
  char* shared_cursor_ = nullptr;  // next run to hand out (blocks_mutex_)
  size_t shared_remaining_ = 0;
  std::atomic<uint64_t> trimmed_bytes_{0};
  std::mutex depot_mutex_;
  std::array<std::vector<chain>, kNumClasses> depot_;  // depot_mutex_
  // Chains parked per class: read unlocked as a hint, so an allocation
  // with an empty freelist takes the lock only when the depot has some.
  std::array<std::atomic<uint32_t>, kNumClasses> depot_chains_{};
};

}  // namespace bdc
