// Invariant and consistency-walk suite for the blocked (cache-packed
// block-linked) Euler-tour forest: block occupancy bounds, per-block
// and per-tour aggregate sums, tour orientation through splice-heavy
// shapes, singleton collapse, and pool recycling/trimming. The generic
// contract is exercised by ett_test / substrate_fuzz_test; this suite
// pins the representation-specific guarantees those cannot see.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "ett/blocked_ett.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "util/node_pool.hpp"
#include "obs/telemetry.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::worker_pool_guard;

void expect_healthy(const blocked_ett& f, const char* where) {
  ASSERT_EQ(f.check_consistency(), "") << where;
}

TEST(BlockedEtt, BlockGeometry) {
  // One block must be 512 bytes of pooled storage: 8 cache lines.
  EXPECT_EQ(blocked_ett::kBlockCap, 59u);
  EXPECT_EQ(blocked_ett::block_bytes(blocked_ett::kBlockCap), 512u);
  EXPECT_EQ(blocked_ett::kMinFill, blocked_ett::kBlockCap / 4);
  // The first-block classes ascend to the full block, and each fills a
  // node_pool size class exactly.
  uint32_t prev = 0;
  for (uint32_t cap : blocked_ett::kClassCaps) {
    EXPECT_GT(cap, prev);
    EXPECT_EQ(blocked_ett::block_bytes(cap) % node_pool::kGranularity, 0u);
    prev = cap;
  }
  EXPECT_EQ(prev, blocked_ett::kBlockCap);
}

// A tour that fits one block holds the smallest size class that fits it:
// growing a path one link at a time walks it up the classes into a
// multi-block tour of full blocks, and cutting it back down walks it back
// to the smallest class.
TEST(BlockedEtt, SmallTourGrowsThroughSizeClasses) {
  const vertex_id n = 200;
  blocked_ett f(n);
  auto expect_classed = [&](const char* phase, vertex_id k) {
    ASSERT_EQ(f.check_consistency(), "") << phase << " k=" << k;
    auto s = f.debug_block_stats();
    ASSERT_EQ(s.tours, 1u) << phase << " k=" << k;
    ASSERT_EQ(s.entries, 3u * k - 2) << phase << " k=" << k;
    if (s.blocks == 1) {
      EXPECT_EQ(s.bytes, blocked_ett::block_bytes(
                             blocked_ett::class_cap(s.entries)))
          << phase << " k=" << k;
    } else {
      EXPECT_EQ(s.bytes,
                s.blocks * blocked_ett::block_bytes(blocked_ett::kBlockCap))
          << phase << ": a multi-block tour holds a short block, k=" << k;
    }
  };
  std::vector<uint32_t> caps_seen;
  for (vertex_id k = 2; k <= n; ++k) {
    f.batch_link(std::vector<edge>{{k - 2, k - 1}});
    expect_classed("grow", k);
    auto s = f.debug_block_stats();
    if (s.blocks == 1) {
      const uint32_t cap = blocked_ett::class_cap(s.entries);
      if (caps_seen.empty() || caps_seen.back() != cap)
        caps_seen.push_back(cap);
    }
    if (k == 2) {
      EXPECT_LE(s.bytes, 96u) << "a 2-vertex tour's blocks";
    }
  }
  // Growth passed through every class, in order.
  EXPECT_EQ(caps_seen, std::vector<uint32_t>(std::begin(blocked_ett::kClassCaps),
                                             std::end(blocked_ett::kClassCaps)));
  EXPECT_GT(f.debug_block_stats().blocks, 1u);
  for (vertex_id k = n; k > 2; --k) {
    f.batch_cut(std::vector<edge>{{k - 2, k - 1}});
    expect_classed("shrink", k - 1);
  }
  EXPECT_LE(f.debug_block_stats().bytes, 96u) << "a 2-vertex tour's blocks";
  f.batch_cut(std::vector<edge>{{0, 1}});
  EXPECT_EQ(f.debug_block_stats().blocks, 0u);
  expect_healthy(f, "after the last cut");
}

// Joining two one-block tours at interior vertices rotates the guest's
// entries into the host's block; cutting the joining edge splits them back
// into one-block tours with their counters intact.
TEST(BlockedEtt, OneBlockToursJoinAndSplitInPlace) {
  blocked_ett f(32);
  f.batch_add_counts(std::vector<count_delta>{{2, 1, 0}, {11, 0, 3}});
  f.batch_link(std::vector<edge>{{0, 1}, {1, 2}, {2, 3}, {10, 11}, {11, 12}});
  expect_healthy(f, "two small tours");
  f.batch_link(std::vector<edge>{{2, 11}});
  expect_healthy(f, "joined");
  auto s = f.debug_block_stats();
  EXPECT_EQ(s.tours, 1u);
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.bytes, blocked_ett::block_bytes(blocked_ett::class_cap(19)));
  EXPECT_EQ(f.component_counts(12), (ett_counts{7, 1, 3}));
  f.batch_cut(std::vector<edge>{{11, 2}});
  expect_healthy(f, "split");
  EXPECT_FALSE(f.connected(0, 12));
  EXPECT_EQ(f.component_counts(3), (ett_counts{4, 1, 0}));
  EXPECT_EQ(f.component_counts(10), (ett_counts{3, 0, 3}));
  s = f.debug_block_stats();
  EXPECT_EQ(s.tours, 2u);
  EXPECT_EQ(s.bytes, blocked_ett::block_bytes(blocked_ett::class_cap(10)) +
                         blocked_ett::block_bytes(blocked_ett::class_cap(7)));
}

TEST(BlockedEtt, PathTourIsPacked) {
  const vertex_id n = 600;  // tour of 3n-2 entries, dozens of blocks
  blocked_ett f(n);
  f.batch_link(gen_path(n));
  expect_healthy(f, "after path link");
  auto s = f.debug_block_stats();
  EXPECT_EQ(s.tours, 1u);
  EXPECT_EQ(s.entries, 3u * n - 2);
  // Occupancy floor: no block of a multi-block tour below kMinFill.
  EXPECT_GE(s.min_fill, blocked_ett::kMinFill);
  // Packing: the tour must not fragment into near-empty blocks.
  EXPECT_LE(s.blocks, (s.entries + blocked_ett::kMinFill - 1) /
                          blocked_ett::kMinFill);
}

TEST(BlockedEtt, OccupancyFloorSurvivesChurn) {
  // Random link/cut churn is exactly what fragments a naive block list;
  // the local rebalance must hold the floor through every batch.
  const vertex_id n = 512;
  blocked_ett f(n);
  random_stream rs(77);
  stream_oracle forest(n);
  std::set<std::pair<vertex_id, vertex_id>> present;  // picks cuts
  for (int round = 0; round < 40; ++round) {
    std::vector<edge> links;
    for (int t = 0; t < 64 && links.size() < 48; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v || forest.connected(u, v)) continue;
      links.push_back({u, v});
      forest.insert({&links.back(), 1});
      present.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
    }
    f.batch_link(links);
    ASSERT_EQ(f.check_consistency(), "") << "link round " << round;
    std::vector<edge> cuts;
    for (auto& pe : present)
      if (rs.next(3) == 0) cuts.push_back({pe.first, pe.second});
    f.batch_cut(cuts);
    forest.erase(cuts);
    for (auto& c : cuts)
      present.erase({c.canonical().u, c.canonical().v});
    ASSERT_EQ(f.check_consistency(), "") << "cut round " << round;
    auto s = f.debug_block_stats();
    if (s.blocks > 0 && s.max_fill > 0) {
      ASSERT_GE(s.min_fill, blocked_ett::kMinFill) << "round " << round;
    }
  }
}

TEST(BlockedEtt, AggregatesTrackCountsAcrossSplices) {
  const vertex_id n = 200;
  blocked_ett f(n);
  // Give every vertex distinct counters BEFORE any structure exists, so
  // splices must carry them correctly through every block move.
  std::vector<count_delta> deltas;
  for (vertex_id v = 0; v < n; ++v)
    deltas.push_back({v, static_cast<int32_t>(v % 3),
                      static_cast<int32_t>(v % 5)});
  f.batch_add_counts(deltas);
  f.batch_link(gen_star(n));
  expect_healthy(f, "after star link");
  ett_counts cc = f.component_counts(17);
  uint32_t tree = 0, nontree = 0;
  for (vertex_id v = 0; v < n; ++v) {
    tree += v % 3;
    nontree += v % 5;
  }
  EXPECT_EQ(cc.vertices, n);
  EXPECT_EQ(cc.tree_edges, tree);
  EXPECT_EQ(cc.nontree_edges, nontree);
  // Cut half the spokes; sums must split exactly.
  std::vector<edge> cuts;
  for (vertex_id v = 1; v < n; v += 2) cuts.push_back({0, v});
  f.batch_cut(cuts);
  expect_healthy(f, "after spoke cuts");
  for (vertex_id v = 1; v < n; v += 2) {
    auto one = f.component_counts(v);
    EXPECT_EQ(one.vertices, 1u);
    EXPECT_EQ(one.tree_edges, v % 3);
    EXPECT_EQ(one.nontree_edges, v % 5);
  }
}

TEST(BlockedEtt, FetchPrunesByBlockAggregates) {
  const vertex_id n = 400;
  blocked_ett f(n);
  f.batch_link(gen_path(n));
  // Slots on two distant vertices only; the pruned walk must surface
  // exactly them, in tour order, for any want.
  std::vector<count_delta> up = {{50, 0, 4}, {333, 0, 6}};
  f.batch_add_counts(up);
  expect_healthy(f, "after counts");
  for (uint64_t want : {1ull, 4ull, 7ull, 10ull, 100ull}) {
    auto slots = f.fetch_nontree(200, want);
    uint64_t sum = 0;
    for (auto& [v, take] : slots) {
      EXPECT_TRUE(v == 50 || v == 333) << v;
      sum += take;
    }
    EXPECT_EQ(sum, std::min<uint64_t>(want, 10));
  }
}

TEST(BlockedEtt, TourOrientationThroughNestedSplices) {
  // A caterpillar linked inside-out then partially cut exercises every
  // splice seam: host/guest swaps, full-block arc placement, and the
  // cut's cycle re-closing. check_consistency walks the closed Euler
  // tour, so a single misplaced segment fails loudly.
  const vertex_id n = 257;
  blocked_ett f(n);
  std::vector<edge> spine;
  for (vertex_id v = 1; v + 2 < n; v += 2) spine.push_back({v, v + 2});
  f.batch_link(spine);
  expect_healthy(f, "spine");
  std::vector<edge> legs;
  for (vertex_id v = 1; v + 1 < n; v += 2) legs.push_back({v, v + 1});
  f.batch_link(legs);
  expect_healthy(f, "legs");
  // Cut every fourth spine edge, then relink in reverse orientation.
  std::vector<edge> cuts;
  for (size_t i = 0; i < spine.size(); i += 4) cuts.push_back(spine[i]);
  f.batch_cut(cuts);
  expect_healthy(f, "spine cuts");
  std::vector<edge> relink;
  for (const edge& e : cuts) relink.push_back({e.v, e.u});
  f.batch_link(relink);
  expect_healthy(f, "relink");
  EXPECT_EQ(f.component_counts(1).vertices, n - 1);
}

TEST(BlockedEtt, SingletonCollapseAndReps) {
  blocked_ett f(8);
  f.batch_link(std::vector<edge>{{0, 1}, {1, 2}});
  auto rep_linked = f.find_rep(2);
  EXPECT_EQ(f.find_rep(0), rep_linked);
  f.batch_cut(std::vector<edge>{{0, 1}, {1, 2}});
  expect_healthy(f, "after full cut");
  // All singletons again: reps distinct, counts unity, no blocks remain.
  std::set<ett_rep> reps;
  for (vertex_id v = 0; v < 8; ++v) {
    EXPECT_EQ(f.component_counts(v).vertices, 1u);
    reps.insert(f.find_rep(v));
  }
  EXPECT_EQ(reps.size(), 8u);
  EXPECT_EQ(f.debug_block_stats().blocks, 0u);
}

// A cut gives the new tour descriptor to the side with fewer blocks, so
// splitting one vertex off either end of a long path rewrites the owner
// of a block or two, not the ~200 blocks of the rest of the path.
TEST(BlockedEtt, CutRelabelsSmallerSide) {
  const vertex_id n = 4096;
  blocked_ett f(n);
  f.batch_link(gen_path(n));
  const obs::counter& relabeled =
      obs::metric_registry::global().get_counter("ett.relabeled_blocks");
  for (edge e : {edge{0, 1}, edge{n - 2, n - 1}}) {
    const uint64_t before = relabeled.value();
    f.batch_cut(std::vector<edge>{e});
    EXPECT_LE(relabeled.value() - before, 2u)
        << "cut (" << e.u << ", " << e.v << ")";
    expect_healthy(f, "after end cut");
  }
  EXPECT_EQ(f.component_counts(1).vertices, n - 2);
  EXPECT_EQ(f.component_counts(0).vertices, 1u);
  EXPECT_EQ(f.component_counts(n - 1).vertices, 1u);
}

TEST(BlockedEtt, ComponentVerticesFollowTourOrder) {
  blocked_ett f(16);
  f.batch_link(std::vector<edge>{{3, 7}, {7, 11}, {11, 15}});
  auto vs = f.component_vertices(7);
  std::set<vertex_id> got(vs.begin(), vs.end());
  EXPECT_EQ(got, (std::set<vertex_id>{3, 7, 11, 15}));
  EXPECT_EQ(vs.size(), 4u);
}

TEST(BlockedEtt, PoolRecyclesAndTrims) {
  // Big enough that the tour spans several 64 KiB pool blocks (~1000
  // tour blocks of 512 B), so a partial trim has something to release.
  const vertex_id n = 20000;
  blocked_ett f(n);
  auto tree = gen_random_tree(n, 5);
  f.batch_link(tree);
  auto first = f.pool_stats();
  EXPECT_GT(first.fresh, 0u);
  EXPECT_GT(first.outstanding(), 0u);
  f.batch_cut(tree);
  expect_healthy(f, "after full teardown");
  auto emptied = f.pool_stats();
  // Every block and tour descriptor returned: outstanding hits zero,
  // which is exactly when high-watermark trimming may release memory.
  EXPECT_EQ(emptied.outstanding(), 0u);
  // Trim down to a two-block spare set first: the spares stay owned and
  // are re-carved by the next burst instead of hitting operator new.
  size_t released = f.trim_pool(2 * node_pool::kBlockBytes);
  EXPECT_GT(released, 0u);
  auto kept = f.pool_stats();
  EXPECT_EQ(kept.blocks, 2u);
  EXPECT_EQ(kept.spare_blocks, 2u);
  f.batch_link(tree);
  EXPECT_EQ(f.pool_stats().spare_blocks, 0u);  // spares carved again
  expect_healthy(f, "after relink on spares");
  f.batch_cut(tree);
  // A full trim releases everything.
  released = f.trim_pool();
  EXPECT_GT(released, 0u);
  EXPECT_EQ(f.pool_stats().retained_bytes(), 0u);
  // The forest stays fully usable after a trim.
  f.batch_link(tree);
  expect_healthy(f, "after relink post-trim");
  EXPECT_EQ(f.component_counts(0).vertices, n);
  // Churn a second time: the pool must serve from freelists, not fresh
  // carves, once warmed up.
  f.batch_cut(tree);
  f.batch_link(tree);
  auto warmed = f.pool_stats();
  EXPECT_GT(warmed.recycled, 0u);
}

TEST(BlockedEtt, TrimIsRefusedWhileNodesLive) {
  blocked_ett f(64);
  f.batch_link(gen_path(64));
  EXPECT_GT(f.pool_stats().outstanding(), 0u);
  EXPECT_EQ(f.trim_pool(), 0u);  // blocks hold live tour data
  expect_healthy(f, "after refused trim");
  EXPECT_EQ(f.component_counts(0).vertices, 64u);
}

// The representation-specific invariants must also hold under the
// parallel grouped mutation path (multi-worker pool, batches above the
// sequential cutoff).
TEST(BlockedEtt, ParallelBatchesKeepInvariants) {
  worker_pool_guard pool(4);
  const vertex_id n = 2048;
  blocked_ett f(n);
  random_stream rs(31);
  stream_oracle forest(n);
  std::set<std::pair<vertex_id, vertex_id>> present;  // picks cuts
  for (int round = 0; round < 10; ++round) {
    std::vector<edge> links;
    for (int t = 0; t < 2000 && links.size() < 300; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v || forest.connected(u, v)) continue;
      links.push_back({u, v});
      forest.insert({&links.back(), 1});
      present.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
    }
    f.batch_link(links);
    ASSERT_EQ(f.check_consistency(), "") << "parallel link r" << round;
    std::vector<edge> cuts;
    for (auto& pe : present)
      if (rs.next(4) == 0) cuts.push_back({pe.first, pe.second});
    f.batch_cut(cuts);
    forest.erase(cuts);
    for (auto& c : cuts) present.erase({c.canonical().u, c.canonical().v});
    ASSERT_EQ(f.check_consistency(), "") << "parallel cut r" << round;
    auto s = f.debug_block_stats();
    if (s.blocks > 0 && s.max_fill > 0) {
      ASSERT_GE(s.min_fill, blocked_ett::kMinFill);
    }
  }
}

}  // namespace
}  // namespace bdc
