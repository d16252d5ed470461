// Sequential HDT baseline tests: full invariant validation plus oracle
// comparison over long random update sequences and structured graphs.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

TEST(Hdt, Basics) {
  hdt_connectivity dc(8);
  EXPECT_FALSE(dc.connected(0, 1));
  dc.insert({0, 1});
  dc.insert({1, 2});
  EXPECT_TRUE(dc.connected(0, 2));
  EXPECT_EQ(dc.num_edges(), 2u);
  dc.insert({0, 1});  // duplicate ignored
  EXPECT_EQ(dc.num_edges(), 2u);
  dc.insert({3, 3});  // self-loop ignored
  EXPECT_EQ(dc.num_edges(), 2u);
  dc.erase({0, 1});
  EXPECT_FALSE(dc.connected(0, 1));
  EXPECT_TRUE(dc.connected(1, 2));
  dc.erase({5, 6});  // absent ignored
  EXPECT_TRUE(dc.check_invariants().empty());
}

TEST(Hdt, ReplacementFound) {
  // Triangle: deleting one tree edge must find the non-tree replacement.
  hdt_connectivity dc(3);
  dc.insert({0, 1});
  dc.insert({1, 2});
  dc.insert({0, 2});  // becomes a non-tree edge
  dc.erase({0, 1});
  EXPECT_TRUE(dc.connected(0, 1));  // still connected via 2
  EXPECT_TRUE(dc.check_invariants().empty());
  EXPECT_GE(dc.stats().replacements_promoted, 1u);
}

TEST(Hdt, CycleHeavyGraph) {
  const vertex_id n = 60;
  hdt_connectivity dc(n);
  auto grid = gen_grid(6, 10);
  for (auto e : grid) dc.insert(e);
  EXPECT_TRUE(dc.connected(0, n - 1));
  // Delete an entire row of horizontal edges; grid stays connected.
  for (vertex_id c = 0; c + 1 < 10; ++c) dc.erase({2 * 10 + c, 2 * 10 + c + 1});
  EXPECT_TRUE(dc.connected(0, n - 1));
  EXPECT_TRUE(dc.check_invariants().empty());
}

class HdtRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(HdtRandomSweep, AgainstRecomputeOracle) {
  int trial = GetParam();
  random_stream rs(trial * 613 + 29);
  const vertex_id n = 120;
  hdt_connectivity dc(n);
  stream_oracle oracle(n);
  std::set<std::pair<vertex_id, vertex_id>> present;  // picks deletions
  for (int step = 0; step < 2500; ++step) {
    vertex_id u = static_cast<vertex_id>(rs.next(n));
    vertex_id v = static_cast<vertex_id>(rs.next(n));
    if (u == v) continue;
    edge c = edge{u, v}.canonical();
    if (rs.next(100) < 60) {
      dc.insert(c);
      oracle.insert({&c, 1});
      present.insert({c.u, c.v});
    } else if (present.count({c.u, c.v})) {
      dc.erase(c);
      oracle.erase({&c, 1});
      present.erase({c.u, c.v});
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, rs.next(present.size()));
      c = {it->first, it->second};
      dc.erase(c);
      oracle.erase({&c, 1});
      present.erase(it);
    }
    if (step % 200 == 0) {
      ASSERT_TRUE(dc.check_invariants().empty()) << "step " << step;
      for (int q = 0; q < 150; ++q) {
        vertex_id a = static_cast<vertex_id>(rs.next(n));
        vertex_id b = static_cast<vertex_id>(rs.next(n));
        ASSERT_EQ(dc.connected(a, b), oracle.connected(a, b))
            << "step " << step;
      }
      ASSERT_EQ(dc.num_edges(), oracle.num_edges());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, HdtRandomSweep, ::testing::Range(0, 5));

TEST(Hdt, DeleteEntireDenseGraph) {
  const vertex_id n = 40;
  hdt_connectivity dc(n);
  auto es = gen_erdos_renyi(n, 300, 5);
  for (auto e : es) dc.insert(e);
  for (auto e : es) dc.erase(e);
  EXPECT_EQ(dc.num_edges(), 0u);
  for (vertex_id v = 1; v < n; ++v) EXPECT_FALSE(dc.connected(0, v));
  EXPECT_TRUE(dc.check_invariants().empty());
}

// Out-of-range ids are validated inside the structure itself (matching
// batch_dynamic_connectivity's drop/false semantics) — callers no longer
// pre-filter.
TEST(Hdt, HostileIdsDropAndAnswerFalse) {
  const vertex_id n = 16;
  hdt_connectivity dc(n);
  dc.insert({0, 1});
  dc.insert({1, n});       // dropped: endpoint out of range
  dc.insert({n + 7, 2});   // dropped
  EXPECT_EQ(dc.num_edges(), 1u);
  dc.erase({1, n});        // no-op, not corruption
  dc.erase({n, n});        // no-op
  EXPECT_EQ(dc.num_edges(), 1u);
  EXPECT_FALSE(dc.connected(1, n));
  EXPECT_FALSE(dc.connected(n, n + 1));
  EXPECT_TRUE(dc.connected(0, 1));
  std::vector<std::pair<vertex_id, vertex_id>> qs = {
      {0, 1}, {0, n}, {n + 3, n + 3}, {0, 2}};
  EXPECT_EQ(dc.batch_connected(qs),
            (std::vector<bool>{true, false, false, false}));
  // Batch updates share the single-op validation.
  dc.batch_insert(std::vector<edge>{{2, 3}, {3, n}, {n, n + 1}});
  EXPECT_EQ(dc.num_edges(), 2u);
  dc.batch_delete(std::vector<edge>{{3, n}, {n, n + 1}});
  EXPECT_EQ(dc.num_edges(), 2u);
  EXPECT_TRUE(dc.check_invariants().empty());
}

// An empty structure (n = 0) must answer every hostile query false.
TEST(Hdt, EmptyStructureHostileQueries) {
  hdt_connectivity dc(0);
  EXPECT_FALSE(dc.connected(0, 1));
  std::vector<std::pair<vertex_id, vertex_id>> qs = {{0, 0}, {5, 9}};
  EXPECT_EQ(dc.batch_connected(qs), (std::vector<bool>{false, false}));
}

TEST(Hdt, StatsAccumulate) {
  hdt_connectivity dc(32);
  auto es = gen_erdos_renyi(32, 100, 9);
  for (auto e : es) dc.insert(e);
  for (auto e : es) dc.erase(e);
  EXPECT_EQ(dc.stats().edges_inserted, 100u);
  EXPECT_EQ(dc.stats().edges_deleted, 100u);
  EXPECT_GT(dc.stats().tree_edges_deleted, 0u);
}

}  // namespace
}  // namespace bdc
