// Epoch-based reclamation for concurrent query serving.
//
// The library's baseline contract is phase concurrency: one exclusive
// mutation phase at a time, queries in between. The epoch layer relaxes
// that for READ traffic: reader threads pin an epoch (a `reader_guard`),
// walk read-only published state, and unpin; writers advance the global
// epoch at batch boundaries and retire unlinked memory onto a limbo list
// instead of freeing it. A limbo entry retired at epoch e may be freed
// once every pinned reader sits at an epoch strictly greater than e —
// at that point no reader can still hold a pointer obtained before the
// unlink was published.
//
// Pin protocol (the standard two-step store/validate):
//
//   e = global.load(seq_cst)
//   loop:
//     slot.store(e, seq_cst)        // announce
//     g = global.load(seq_cst)     // validate
//     if (g == e) break            // announcement is visible "in time"
//     e = g                        // writer advanced mid-pin; re-announce
//
// Why this is safe: suppose a writer frees an entry retired at epoch e.
// That requires min_pinned() > e, i.e. the writer's slot scan (all slot
// accesses are seq_cst) did not observe any slot holding an epoch <= e,
// and the global epoch had already advanced past e. If a reader's final
// slot.store(e') with e' <= e preceded the scan's load in the seq_cst
// total order, the scan would have seen it — contradiction. So the store
// followed the scan; but then the reader's validating global.load also
// follows the writer's advance in the total order, reads a value > e',
// and the reader re-announces with the newer epoch. Hence a successfully
// validated pin at epoch p is always visible to any scan that could free
// epoch-p garbage, and the pin additionally synchronizes with the last
// advance, so the reader observes every unlink published before it.
//
// Readers are wait-free on the slot path (one CAS-free claim scan, two
// seq_cst accesses); only the >kMaxReaders overflow path takes a mutex.
// Reader threads need not be scheduler workers — slots are claimed per
// guard, not per worker id, which is what lets `stream_runner
// --serve-queries=T` hammer queries from plain std::threads.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bdc {

class epoch_manager {
 public:
  /// Lock-free reader slots. Guards beyond this many concurrently pinned
  /// fall back to a mutex-guarded overflow list (correct, not wait-free).
  static constexpr unsigned kMaxReaders = 64;
  /// min_pinned() result when no reader is pinned.
  static constexpr uint64_t kNonePinned = ~uint64_t{0};

  epoch_manager() = default;
  epoch_manager(const epoch_manager&) = delete;
  epoch_manager& operator=(const epoch_manager&) = delete;

  /// The owner guarantees no reader_guard outlives the manager; remaining
  /// limbo entries are reclaimed unconditionally.
  ~epoch_manager() {
    assert(min_pinned() == kNonePinned && "reader_guard outlived manager");
    for (const limbo_entry& e : limbo_) e.deleter(e.p);
  }

  /// RAII epoch pin. Move-only. Guards nest trivially: each pin claims
  /// its own slot, so an inner guard never weakens the outer one's
  /// protection (min_pinned() stays at the oldest live guard's epoch).
  class reader_guard {
   public:
    reader_guard() = default;
    reader_guard(reader_guard&& o) noexcept
        : em_(o.em_), slot_(o.slot_), epoch_(o.epoch_) {
      o.em_ = nullptr;
    }
    reader_guard& operator=(reader_guard&& o) noexcept {
      if (this != &o) {
        release();
        em_ = o.em_;
        slot_ = o.slot_;
        epoch_ = o.epoch_;
        o.em_ = nullptr;
      }
      return *this;
    }
    reader_guard(const reader_guard&) = delete;
    reader_guard& operator=(const reader_guard&) = delete;
    ~reader_guard() { release(); }

    [[nodiscard]] bool pinned() const { return em_ != nullptr; }
    [[nodiscard]] uint64_t epoch() const { return epoch_; }

    /// Unpins early (idempotent).
    void release() {
      if (em_ == nullptr) return;
      em_->unpin(slot_, epoch_);
      em_ = nullptr;
    }

   private:
    friend class epoch_manager;
    reader_guard(epoch_manager* em, unsigned slot, uint64_t epoch)
        : em_(em), slot_(slot), epoch_(epoch) {}

    epoch_manager* em_ = nullptr;
    unsigned slot_ = 0;
    uint64_t epoch_ = 0;
  };

  /// Pins the current epoch. Wait-free while fewer than kMaxReaders
  /// guards are live; callable from any thread.
  [[nodiscard]] reader_guard pin() {
    for (unsigned s = 0; s < kMaxReaders; ++s) {
      slot& sl = slots_[s];
      if (sl.used.load(std::memory_order_relaxed)) continue;
      if (sl.used.exchange(true, std::memory_order_acquire)) continue;
      uint64_t e = global_.load(std::memory_order_seq_cst);
      for (;;) {
        sl.epoch.store(e, std::memory_order_seq_cst);
        uint64_t g = global_.load(std::memory_order_seq_cst);
        if (g == e) break;
        e = g;
      }
      return reader_guard(this, s, e);
    }
    // Overflow: record the pin under the mutex. min_pinned() takes the
    // same mutex, so a scan either sees the entry (conservative) or ran
    // entirely before this critical section — in which case the global
    // load below is ordered after any advance that preceded that scan
    // and the recorded epoch is new enough.
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    uint64_t e = global_.load(std::memory_order_seq_cst);
    overflow_pins_.push_back(e);
    return reader_guard(this, kOverflowSlot, e);
  }

  /// Current global epoch (starts at 1; 0 marks an idle slot).
  [[nodiscard]] uint64_t current() const {
    return global_.load(std::memory_order_seq_cst);
  }

  /// Writer-side: advances the global epoch. Returns the new epoch.
  uint64_t advance() {
    return global_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Smallest epoch any live guard holds, or kNonePinned.
  [[nodiscard]] uint64_t min_pinned() const {
    uint64_t mn = kNonePinned;
    for (const slot& sl : slots_) {
      uint64_t e = sl.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < mn) mn = e;
    }
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    for (uint64_t e : overflow_pins_)
      if (e < mn) mn = e;
    return mn;
  }

  /// Defers `deleter(p)` until no pinned reader can still observe `p`.
  /// The entry is stamped with the current epoch; it becomes reclaimable
  /// once min_pinned() exceeds that stamp. Thread-safe (mutex-guarded).
  void retire(void* p, void (*deleter)(void*)) {
    std::lock_guard<std::mutex> lock(limbo_mutex_);
    limbo_.push_back({p, deleter, global_.load(std::memory_order_seq_cst)});
  }

  /// Reclaims every limbo entry no pinned reader can observe. Returns the
  /// number reclaimed. Safe to call from any thread at any time (a
  /// concurrent pin is either seen, or too new to reach the entries).
  size_t drain() {
    std::vector<limbo_entry> dead;
    {
      std::lock_guard<std::mutex> lock(limbo_mutex_);
      if (limbo_.empty()) return 0;
      uint64_t mn = min_pinned();
      auto keep = limbo_.begin();
      for (limbo_entry& e : limbo_) {
        if (e.epoch < mn)
          dead.push_back(e);
        else
          *keep++ = e;
      }
      limbo_.erase(keep, limbo_.end());
    }
    for (const limbo_entry& e : dead) e.deleter(e.p);
    return dead.size();
  }

  /// Entries currently deferred.
  [[nodiscard]] size_t limbo_size() const {
    std::lock_guard<std::mutex> lock(limbo_mutex_);
    return limbo_.size();
  }

  // Writer bookkeeping: lets quiescence-requiring maintenance
  // (batch_dynamic_connectivity::trim_pools) assert that no update batch
  // is in flight.
  void begin_write() { writers_.fetch_add(1, std::memory_order_acq_rel); }
  void end_write() { writers_.fetch_sub(1, std::memory_order_acq_rel); }
  [[nodiscard]] bool writers_active() const {
    return writers_.load(std::memory_order_acquire) != 0;
  }

 private:
  static constexpr unsigned kOverflowSlot = kMaxReaders;

  struct alignas(64) slot {
    std::atomic<uint64_t> epoch{0};  // 0 = idle
    std::atomic<bool> used{false};
  };

  struct limbo_entry {
    void* p;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  void unpin(unsigned s, uint64_t epoch) {
    if (s == kOverflowSlot) {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      for (auto it = overflow_pins_.begin(); it != overflow_pins_.end(); ++it) {
        if (*it == epoch) {
          *it = overflow_pins_.back();
          overflow_pins_.pop_back();
          return;
        }
      }
      assert(false && "overflow pin not found");
      return;
    }
    slots_[s].epoch.store(0, std::memory_order_seq_cst);
    slots_[s].used.store(false, std::memory_order_release);
  }

  std::atomic<uint64_t> global_{1};
  std::atomic<uint64_t> writers_{0};
  std::array<slot, kMaxReaders> slots_;
  mutable std::mutex overflow_mutex_;
  std::vector<uint64_t> overflow_pins_;
  mutable std::mutex limbo_mutex_;
  std::vector<limbo_entry> limbo_;
};

}  // namespace bdc
