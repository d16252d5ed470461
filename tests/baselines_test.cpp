// Baseline comparators: static recompute and incremental union-find.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "baselines/incremental_connectivity.hpp"
#include "baselines/static_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

TEST(StaticRecompute, MatchesOracleUnderChurn) {
  random_stream rs(21);
  const vertex_id n = 100;
  static_recompute_connectivity sc(n);
  stream_oracle oracle(n);
  std::set<std::pair<vertex_id, vertex_id>> present;  // picks deletions
  for (int round = 0; round < 30; ++round) {
    std::vector<edge> ins;
    for (int t = 0; t < 20; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.push_back({u, v});
      if (u != v) present.insert({edge{u, v}.canonical().u,
                                  edge{u, v}.canonical().v});
    }
    sc.batch_insert(ins);
    oracle.insert(ins);
    std::vector<edge> del;
    for (auto& pe : present)
      if (rs.next(3) == 0) del.push_back({pe.first, pe.second});
    sc.batch_delete(del);
    oracle.erase(del);
    for (auto& e : del) present.erase({e.u, e.v});

    for (int q = 0; q < 100; ++q) {
      vertex_id a = static_cast<vertex_id>(rs.next(n));
      vertex_id b = static_cast<vertex_id>(rs.next(n));
      ASSERT_EQ(sc.connected(a, b), oracle.connected(a, b));
    }
    ASSERT_EQ(sc.num_edges(), oracle.num_edges());
  }
}

TEST(StaticRecompute, RecomputesLazily) {
  static_recompute_connectivity sc(10);
  sc.batch_insert(gen_path(10));
  EXPECT_EQ(sc.recomputes(), 0u);  // nothing queried yet
  EXPECT_TRUE(sc.connected(0, 9));
  EXPECT_EQ(sc.recomputes(), 1u);
  EXPECT_TRUE(sc.connected(3, 4));  // cached
  EXPECT_EQ(sc.recomputes(), 1u);
  sc.batch_delete(std::vector<edge>{{4, 5}});
  EXPECT_FALSE(sc.connected(0, 9));
  EXPECT_EQ(sc.recomputes(), 2u);
}

TEST(Incremental, MatchesOracle) {
  random_stream rs(31);
  const vertex_id n = 500;
  incremental_connectivity inc(n);
  stream_oracle oracle(n);
  for (int round = 0; round < 20; ++round) {
    std::vector<edge> ins;
    for (int t = 0; t < 100; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.push_back({u, v});
    }
    inc.batch_insert(ins);
    oracle.insert(ins);
    auto qs = std::vector<std::pair<vertex_id, vertex_id>>{};
    for (int q = 0; q < 200; ++q)
      qs.push_back({static_cast<vertex_id>(rs.next(n)),
                    static_cast<vertex_id>(rs.next(n))});
    auto got = inc.batch_connected(qs);
    for (size_t q = 0; q < qs.size(); ++q)
      ASSERT_EQ(got[q], oracle.connected(qs[q].first, qs[q].second));
  }
}

// Regression: batch_insert used to do num_edges_ += es.size(), counting
// self-loops, duplicates (within and across batches), both orientations,
// and out-of-range ids. num_edges() must count the distinct real edge
// set only.
TEST(Incremental, NumEdgesCountsDistinctRealEdges) {
  incremental_connectivity inc(10);
  inc.batch_insert(std::vector<edge>{{1, 2}, {2, 1}, {1, 2}, {3, 3}});
  EXPECT_EQ(inc.num_edges(), 1u);
  inc.batch_insert(std::vector<edge>{{1, 2}, {4, 5}, {9, 10}, {10, 11}});
  EXPECT_EQ(inc.num_edges(), 2u);  // {1,2} again + OOR pairs add nothing
  inc.batch_insert(std::vector<edge>{{5, 4}});
  EXPECT_EQ(inc.num_edges(), 2u);
  EXPECT_TRUE(inc.has_edge({2, 1}));
  EXPECT_FALSE(inc.has_edge({1, 3}));
  EXPECT_FALSE(inc.has_edge({9, 10}));
  auto es = inc.edge_list();
  std::sort(es.begin(), es.end(), [](edge a, edge b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  EXPECT_EQ(es, (std::vector<edge>{{1, 2}, {4, 5}}));
}

TEST(Incremental, HostileIdsDropAndAnswerFalse) {
  const vertex_id n = 8;
  incremental_connectivity inc(n);
  inc.batch_insert(std::vector<edge>{{0, 1}, {1, n}, {n, n + 3}, {2, 3}});
  EXPECT_EQ(inc.num_edges(), 2u);
  EXPECT_FALSE(inc.connected(1, n));
  EXPECT_FALSE(inc.connected(n, n));
  EXPECT_TRUE(inc.connected(0, 1));
  auto got = inc.batch_connected(std::vector<std::pair<vertex_id, vertex_id>>{
      {0, 1}, {0, n}, {n + 1, n + 1}, {2, 3}});
  EXPECT_EQ(got, (std::vector<bool>{true, false, false, true}));
}

TEST(Incremental, ComponentsAreMinVertexLabels) {
  incremental_connectivity inc(6);
  inc.batch_insert(std::vector<edge>{{4, 2}, {2, 5}, {0, 1}});
  EXPECT_EQ(inc.components(),
            (std::vector<vertex_id>{0, 0, 2, 3, 2, 2}));
}

TEST(StaticRecompute, HostileIdsDropAndAnswerFalse) {
  const vertex_id n = 8;
  static_recompute_connectivity sc(n);
  sc.batch_insert(std::vector<edge>{{0, 1}, {1, n}, {n + 4, 2}, {2, 3}});
  EXPECT_EQ(sc.num_edges(), 2u);
  EXPECT_FALSE(sc.connected(1, n));
  EXPECT_FALSE(sc.connected(n + 4, 2));
  EXPECT_TRUE(sc.connected(0, 1));
  auto got = sc.batch_connected(std::vector<std::pair<vertex_id, vertex_id>>{
      {0, 1}, {0, n}, {n, n}, {2, 3}});
  EXPECT_EQ(got, (std::vector<bool>{true, false, false, true}));
  // Deleting an out-of-range edge is a no-op, not corruption.
  sc.batch_delete(std::vector<edge>{{1, n}, {n, n + 1}});
  EXPECT_EQ(sc.num_edges(), 2u);
  EXPECT_TRUE(sc.connected(2, 3));
}

// Regression for the lazy-refresh race: connected()/batch_connected()
// used to mutate labels_/stale_/recomputes_ with no synchronization, so
// two concurrent first-queries after an update raced on the rebuild.
// refresh() is now double-checked under a mutex and batch_connected
// refreshes once up front; this hammers it from many threads (run under
// TSan in CI).
TEST(StaticRecompute, ConcurrentQueriesAfterUpdateAreSafe) {
  const vertex_id n = 2000;
  static_recompute_connectivity sc(n);
  std::vector<edge> path;
  for (vertex_id v = 0; v + 1 < n; ++v) path.push_back({v, v + 1});
  for (int round = 0; round < 4; ++round) {
    // Leave the structure dirty, then query it from many threads at once:
    // exactly one rebuild per dirty epoch may happen.
    if (round % 2 == 0) {
      sc.batch_insert(path);
    } else {
      sc.batch_delete(std::vector<edge>{{n / 2, n / 2 + 1}});
    }
    bool split = round % 2 == 1;
    uint64_t before = sc.recomputes();
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::pair<vertex_id, vertex_id>> qs;
        for (vertex_id q = 0; q < 64; ++q)
          qs.push_back({(q * 37 + static_cast<vertex_id>(t)) % n,
                        (q * 101 + 13) % n});
        auto got = sc.batch_connected(qs);
        for (size_t i = 0; i < qs.size(); ++i) {
          bool want = split ? (qs[i].first <= n / 2) == (qs[i].second <= n / 2)
                            : true;
          if (got[i] != want) wrong.fetch_add(1);
        }
        for (vertex_id q = 0; q < 32; ++q)
          if (sc.connected(q, q + 1) != (split ? q != n / 2 : true))
            wrong.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(sc.recomputes(), before + 1)
        << "concurrent first-queries must share one rebuild";
  }
}

}  // namespace
}  // namespace bdc
