// Unit suite for the epoch-based reclamation layer (util/epoch.hpp) and
// the node pool (util/node_pool.hpp). The cross-structure concurrent
// serving tests live in concurrent_query_test.cpp; this file pins down the
// manager's small state machine (pin/advance/limbo-drain interleavings,
// nested guards, the >kMaxReaders overflow fallback) and the pool's
// shared carve block, cross-worker depot and trim.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/scheduler.hpp"
#include "test_workers.hpp"
#include "util/epoch.hpp"
#include "util/node_pool.hpp"

namespace bdc {
namespace {

// ---------------------------------------------------------------------
// epoch_manager
// ---------------------------------------------------------------------

TEST(Epoch, PinTracksCurrentEpoch) {
  epoch_manager em;
  EXPECT_EQ(em.current(), 1u);
  EXPECT_EQ(em.min_pinned(), epoch_manager::kNonePinned);
  {
    auto g = em.pin();
    EXPECT_TRUE(g.pinned());
    EXPECT_EQ(g.epoch(), 1u);
    EXPECT_EQ(em.min_pinned(), 1u);
  }
  EXPECT_EQ(em.min_pinned(), epoch_manager::kNonePinned);
}

TEST(Epoch, MinPinnedIsOldestLiveGuard) {
  epoch_manager em;
  auto g1 = em.pin();
  EXPECT_EQ(em.advance(), 2u);
  auto g2 = em.pin();
  EXPECT_EQ(g2.epoch(), 2u);
  EXPECT_EQ(em.min_pinned(), 1u);
  g1.release();
  EXPECT_EQ(em.min_pinned(), 2u);
  g1.release();  // idempotent
  EXPECT_EQ(em.min_pinned(), 2u);
  g2.release();
  EXPECT_EQ(em.min_pinned(), epoch_manager::kNonePinned);
}

TEST(Epoch, NestedGuardsProtectTheOldest) {
  epoch_manager em;
  auto outer = em.pin();
  em.advance();
  {
    auto inner = em.pin();
    EXPECT_EQ(inner.epoch(), 2u);
    // The inner guard must not weaken the outer pin.
    EXPECT_EQ(em.min_pinned(), 1u);
  }
  EXPECT_EQ(em.min_pinned(), 1u);
}

TEST(Epoch, DrainFreesOnlyWhatNoReaderCanObserve) {
  epoch_manager em;
  static std::atomic<int> freed{0};
  freed.store(0);
  auto del = [](void* p) {
    delete static_cast<int*>(p);
    freed.fetch_add(1);
  };
  auto reader = em.pin();  // epoch 1
  em.retire(new int(7), del);
  EXPECT_EQ(em.limbo_size(), 1u);
  // The entry is stamped with epoch 1; the reader pins 1, so 1 < 1 fails.
  EXPECT_EQ(em.drain(), 0u);
  em.advance();
  // Still pinned at 1 <= 1: not reclaimable even after the advance.
  EXPECT_EQ(em.drain(), 0u);
  reader.release();
  EXPECT_EQ(em.drain(), 1u);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(em.limbo_size(), 0u);
}

// The read service's guarantee: a reader pinned long ago that loads the
// LATEST published object keeps it alive, however many epochs later the
// writer supersedes and retires it.
TEST(Epoch, ObjectLoadedAfterThePinOutlivesLaterRetires) {
  epoch_manager em;
  static std::atomic<int> freed{0};
  freed.store(0);
  auto del = [](void* p) {
    delete static_cast<int*>(p);
    freed.fetch_add(1);
  };
  auto reader = em.pin();  // epoch 1
  em.advance();
  em.advance();
  int* latest = new int(42);  // published at epoch 3, loaded by the reader
  em.retire(latest, del);     // superseded by the next batch
  for (int batch = 0; batch < 3; ++batch) {
    em.advance();
    EXPECT_EQ(em.drain(), 0u);
    EXPECT_EQ(*latest, 42);
  }
  reader.release();
  EXPECT_EQ(em.drain(), 1u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, LaterReadersDoNotBlockOlderGarbage) {
  epoch_manager em;
  static std::atomic<int> freed{0};
  freed.store(0);
  auto del = [](void* p) {
    delete static_cast<int*>(p);
    freed.fetch_add(1);
  };
  em.retire(new int(1), del);  // stamped epoch 1
  em.advance();                // now 2
  auto late = em.pin();        // pins 2
  // 1 < 2: the late reader cannot have seen the epoch-1 pointer.
  EXPECT_EQ(em.drain(), 1u);
  EXPECT_EQ(freed.load(), 1);
}

TEST(Epoch, DestructorReclaimsRemainingLimbo) {
  static std::atomic<int> freed{0};
  freed.store(0);
  {
    epoch_manager em;
    em.retire(new int(1),
              [](void* p) { delete static_cast<int*>(p); freed.fetch_add(1); });
    em.retire(new int(2),
              [](void* p) { delete static_cast<int*>(p); freed.fetch_add(1); });
  }
  EXPECT_EQ(freed.load(), 2);
}

TEST(Epoch, OverflowBeyondSlotCountStaysCorrect) {
  epoch_manager em;
  std::vector<epoch_manager::reader_guard> guards;
  guards.reserve(epoch_manager::kMaxReaders + 8);
  for (unsigned i = 0; i < epoch_manager::kMaxReaders + 8; ++i)
    guards.push_back(em.pin());
  EXPECT_EQ(em.min_pinned(), 1u);
  em.advance();
  auto late = em.pin();  // also overflow; epoch 2
  EXPECT_EQ(late.epoch(), 2u);
  EXPECT_EQ(em.min_pinned(), 1u);
  // Release every epoch-1 guard; only the overflow epoch-2 pin remains.
  guards.clear();
  EXPECT_EQ(em.min_pinned(), 2u);
  late.release();
  EXPECT_EQ(em.min_pinned(), epoch_manager::kNonePinned);
  // Slots are reusable after the storm.
  auto again = em.pin();
  EXPECT_EQ(again.epoch(), 2u);
}

TEST(Epoch, WriterFlag) {
  epoch_manager em;
  EXPECT_FALSE(em.writers_active());
  em.begin_write();
  EXPECT_TRUE(em.writers_active());
  em.end_write();
  EXPECT_FALSE(em.writers_active());
}

TEST(Epoch, MoveTransfersThePin) {
  epoch_manager em;
  auto g1 = em.pin();
  auto g2 = std::move(g1);
  EXPECT_FALSE(g1.pinned());  // NOLINT(bugprone-use-after-move): asserting it
  EXPECT_TRUE(g2.pinned());
  EXPECT_EQ(em.min_pinned(), 1u);
  g2.release();
  EXPECT_EQ(em.min_pinned(), epoch_manager::kNonePinned);
}

// Readers pin/unpin from plain threads while a writer advances, retires,
// and drains. Run under TSan, this exercises the seq_cst announce/validate
// protocol; on any build it checks that nothing is freed early (each
// retired cell is poisoned by its deleter and readers assert they never
// observe poison through a pinned load).
TEST(Epoch, ConcurrentPinAdvanceDrainSmoke) {
  epoch_manager em;
  constexpr int kReaders = 4;
  constexpr int kRounds = 300;
  // One shared published cell, versioned like a tiny read path.
  struct cell {
    std::atomic<uint64_t> value;
  };
  std::atomic<cell*> published{new cell{{1}}};
  static std::atomic<int> freed{0};
  freed.store(0);
  auto del = [](void* p) {
    static_cast<cell*>(p)->value.store(0, std::memory_order_relaxed);
    delete static_cast<cell*>(p);
    freed.fetch_add(1);
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto g = em.pin();
        cell* c = published.load(std::memory_order_acquire);
        // The pin must keep the cell alive: value stays nonzero.
        ASSERT_NE(c->value.load(std::memory_order_relaxed), 0u);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    cell* fresh = new cell{{static_cast<uint64_t>(r + 2)}};
    cell* old = published.exchange(fresh, std::memory_order_acq_rel);
    em.retire(old, del);
    em.advance();
    em.drain();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  em.drain();
  EXPECT_EQ(freed.load(), kRounds);
  delete published.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// node_pool: shared carve block, cross-worker depot, trim
// ---------------------------------------------------------------------

TEST(NodePool, FreedNodeIsRecycledAtOnce) {
  node_pool pool;
  void* p = pool.allocate(64);
  pool.deallocate(p, 64);
  auto s = pool.stats();
  EXPECT_EQ(s.freed, 1u);
  EXPECT_EQ(s.outstanding(), 0u);
  // Same class: the freed node comes straight back.
  void* q = pool.allocate(64);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.stats().recycled, 1u);
  pool.deallocate(q, 64);
}

TEST(NodePool, WorkersShareOneCarveBlock) {
  // Every worker carves runs from one shared block, so a few nodes from
  // each worker of a 4-worker pool fit one block, not one per worker.
  ::bdc::testing::worker_pool_guard workers(4);
  node_pool pool;  // after the resize: per-worker slots freeze here
  std::vector<void*> nodes(256);
  parallel_for(
      0, nodes.size(), [&](size_t i) { nodes[i] = pool.allocate(64); }, 1);
  EXPECT_EQ(pool.stats().blocks, 1u);
  for (void* p : nodes) pool.deallocate(p, 64);
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(NodePool, NodesFreedOnAnotherWorkerAreReused) {
  // Every round allocates on the calling worker and frees across the
  // pool's workers. Nodes another worker frees must come back through the
  // shared depot; a freelist that only its own worker can pop would make
  // the caller carve fresh memory every round.
  ::bdc::testing::worker_pool_guard workers(2);
  node_pool pool;
  constexpr size_t kBytes = 64;
  std::vector<void*> nodes(4096);
  uint64_t blocks_after_first_round = 0;
  for (int round = 0; round < 32; ++round) {
    for (void*& p : nodes) p = pool.allocate(kBytes);
    parallel_for(
        0, nodes.size(), [&](size_t i) { pool.deallocate(nodes[i], kBytes); },
        1);
    if (round == 0) blocks_after_first_round = pool.stats().blocks;
  }
  EXPECT_LE(pool.stats().blocks, blocks_after_first_round + 1);
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(NodePool, TrimKeepsSparesThenReusesThem) {
  node_pool pool;
  constexpr size_t kBytes = 64;
  const size_t per_block = node_pool::kBlockBytes / kBytes;
  std::vector<void*> nodes(3 * per_block);
  for (auto& p : nodes) p = pool.allocate(kBytes);
  // With nodes live, trim cannot move the blocks: a no-op.
  EXPECT_EQ(pool.trim(), 0u);
  for (void* p : nodes) pool.deallocate(p, kBytes);
  const uint64_t carved = pool.stats().blocks;
  ASSERT_GE(carved, 3u);

  // Every node returned: keep one block as a spare, release the rest.
  EXPECT_EQ(pool.trim(node_pool::kBlockBytes),
            (carved - 1) * node_pool::kBlockBytes);
  auto s = pool.stats();
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.spare_blocks, 1u);
  EXPECT_EQ(s.outstanding(), 0u);

  // The next burst carves the spare instead of asking the OS for more.
  std::vector<void*> again(per_block / 2);
  for (auto& p : again) p = pool.allocate(kBytes);
  s = pool.stats();
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.spare_blocks, 0u);
  for (void* p : again) pool.deallocate(p, kBytes);
  EXPECT_EQ(pool.trim(), node_pool::kBlockBytes);
  EXPECT_EQ(pool.stats().blocks, 0u);
}

}  // namespace
}  // namespace bdc
