// Unit suite for the epoch-based reclamation layer (util/epoch.hpp) and
// the node_pool limbo / partial-trim paths it unlocks
// (util/node_pool.hpp). The cross-structure concurrent serving tests live
// in concurrent_query_test.cpp; this file pins down the manager's small
// state machine: pin/advance/limbo-drain interleavings, nested guards,
// the >kMaxReaders overflow fallback, the per-block live counts that let
// trim_partial() release fully-dead blocks, and the shared carve block
// that every worker's runs come from.
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_set>
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
// node_pool: epoch-deferred reclaim and per-block live counts
// ---------------------------------------------------------------------

TEST(NodePoolEpoch, ReclaimWithoutEpochsFreesImmediately) {
  node_pool pool;
  void* p = pool.allocate(64);
  pool.reclaim(p, 64);
  auto s = pool.stats();
  EXPECT_EQ(s.limbo, 0u);
  EXPECT_EQ(s.freed, 1u);
  EXPECT_EQ(s.outstanding(), 0u);
}

TEST(NodePoolEpoch, ReclaimDefersUntilReadersPass) {
  epoch_manager em;
  node_pool pool;
  pool.bind_epochs(&em);
  EXPECT_TRUE(pool.deferred());

  void* p = pool.allocate(64);
  auto reader = em.pin();
  pool.reclaim(p, 64);
  auto s = pool.stats();
  EXPECT_EQ(s.limbo, 1u);
  EXPECT_EQ(s.freed, 0u);
  EXPECT_EQ(s.outstanding(), 1u);  // limbo counts as outstanding

  // Reader pinned at the retire epoch: nothing may drain.
  EXPECT_EQ(pool.drain_limbo(), 0u);
  em.advance();
  EXPECT_EQ(pool.drain_limbo(), 0u);

  reader.release();
  EXPECT_EQ(pool.drain_limbo(), 1u);
  s = pool.stats();
  EXPECT_EQ(s.limbo, 0u);
  EXPECT_EQ(s.freed, 1u);
  EXPECT_EQ(s.outstanding(), 0u);

  // The drained node went back onto a freelist: same-class allocation
  // recycles it.
  void* q = pool.allocate(64);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.stats().recycled, 1u);
  pool.deallocate(q, 64);
  pool.drain_limbo();
  pool.bind_epochs(nullptr);  // limbo empty: unbinding is legal again
  EXPECT_FALSE(pool.deferred());
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

TEST(NodePoolEpoch, TrimPartialReleasesOnlyDeadBlocks) {
  node_pool pool;
  // ~1023 64-byte nodes fit one block; carve three blocks' worth.
  constexpr size_t kBytes = 64;
  const size_t per_block = (node_pool::kBlockBytes - 64) / kBytes;
  const size_t total = 3 * per_block;
  std::vector<void*> nodes(total);
  for (size_t i = 0; i < total; ++i) nodes[i] = pool.allocate(kBytes);
  auto before = pool.stats();
  EXPECT_GE(before.blocks, 3u);

  // Keep the very first node live; free everything else. The first block
  // then has live == 1, the middle block(s) live == 0, and the cursor
  // block is protected regardless.
  for (size_t i = 1; i < total; ++i) pool.deallocate(nodes[i], kBytes);
  size_t released = pool.trim_partial();
  EXPECT_GT(released, 0u);
  EXPECT_EQ(released % node_pool::kBlockBytes, 0u);
  auto after = pool.stats();
  EXPECT_GE(after.dead_block_trims, 1u);
  EXPECT_LT(after.blocks, before.blocks);
  EXPECT_EQ(after.outstanding(), 1u);

  // Freelists were purged of pointers into released blocks: allocating
  // again must hand out only safe memory (crash/ASan would catch a stale
  // entry) and the live node is untouched.
  std::vector<void*> again(per_block);
  for (size_t i = 0; i < per_block; ++i) again[i] = pool.allocate(kBytes);
  for (size_t i = 0; i < per_block; ++i) pool.deallocate(again[i], kBytes);
  pool.deallocate(nodes[0], kBytes);
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(NodePoolEpoch, LimboKeepsBlocksAliveUntilDrained) {
  epoch_manager em;
  node_pool pool;
  pool.bind_epochs(&em);
  constexpr size_t kBytes = 64;
  const size_t per_block = (node_pool::kBlockBytes - 64) / kBytes;
  const size_t total = 2 * per_block;
  std::vector<void*> nodes(total);
  for (size_t i = 0; i < total; ++i) nodes[i] = pool.allocate(kBytes);

  // A pinned reader parks every free in limbo: live counts stay positive,
  // so trim_partial must not release anything the reader could touch.
  auto reader = em.pin();
  for (void* p : nodes) pool.reclaim(p, kBytes);
  EXPECT_EQ(pool.stats().limbo, total);
  EXPECT_EQ(pool.trim_partial(), 0u);

  reader.release();
  em.advance();
  EXPECT_EQ(pool.drain_limbo(), total);
  // Now the non-cursor block really is dead.
  EXPECT_GT(pool.trim_partial(), 0u);
  EXPECT_EQ(pool.stats().limbo, 0u);
  pool.bind_epochs(nullptr);
}

TEST(NodePoolEpoch, TrimResetsSpareHeaderLiveCounts) {
  node_pool pool;
  constexpr size_t kBytes = 64;
  std::vector<void*> nodes(100);
  for (auto& p : nodes) p = pool.allocate(kBytes);
  for (void* p : nodes) pool.deallocate(p, kBytes);
  // Full trim keeping one block as a spare: its header live count must be
  // reset so a later carve/free cycle balances back to zero.
  pool.trim(node_pool::kBlockBytes);
  auto s = pool.stats();
  EXPECT_EQ(s.spare_blocks, s.blocks);
  for (auto& p : nodes) p = pool.allocate(kBytes);
  for (void* p : nodes) pool.deallocate(p, kBytes);
  EXPECT_GT(pool.trim_partial() + pool.trim(), 0u);
}

}  // namespace
}  // namespace bdc
