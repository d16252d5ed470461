// engine_router (the workload-adaptive front end) test suite.
//
// Three groups:
//   * RouterDifferential — phase-skewed mixed traces replayed in lockstep
//     through the router AND every fixed engine (HDT batch structure,
//     sequential HDT, static recompute), all checked against the stream
//     oracle of gen/replay_oracle.hpp. The router must be
//     indistinguishable from the fixed engines on every answer, edge
//     count, and components() labelling.
//   * Promotion boundaries — deletion in batch 0, deletions of
//     never-inserted edges (which must NOT promote), and promotion with
//     self-loops / duplicates / out-of-range ids pending in the
//     accumulated edge set.
//   * Queries — an update that changes connectivity is visible to the
//     very next query, out-of-range ids answer false, and query batches
//     from several threads at once all pass the served-read checker,
//     each both before and after promotion.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/static_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "gen/update_stream.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::worker_pool_guard;
using ::bdc::testing::workers_name;

using query_list = std::vector<std::pair<vertex_id, vertex_id>>;

// ---------------------------------------------------------------------
// Differential replay: router vs fixed engines vs union-find oracle on
// the same phase-skewed trace the router is built for.
// ---------------------------------------------------------------------

struct diff_params {
  vertex_id n;
  size_t m;
  size_t batch;
  unsigned workers;  // 0 = hardware pool
  uint64_t seed;
};

class RouterDifferential : public ::testing::TestWithParam<diff_params> {};

TEST_P(RouterDifferential, PhaseSkewedTraceLockstep) {
  const diff_params p = GetParam();
  worker_pool_guard pool(p.workers);
  SCOPED_TRACE("repro: n=" + std::to_string(p.n) + " m=" +
               std::to_string(p.m) + " batch=" + std::to_string(p.batch) +
               " workers=" + workers_name(p.workers) + " seed=" +
               std::to_string(p.seed));
  auto graph = gen_erdos_renyi(p.n, p.m, p.seed);
  auto stream = make_phase_skewed_stream(graph, p.n, p.batch,
                                         /*flood_batches=*/4,
                                         /*flood_queries=*/2 * p.batch,
                                         p.seed + 1);
  // Hostile garbage the trace generator never emits: the router and every
  // fixed engine must shrug these off identically.
  if (!stream.empty() && stream[0].op == update_batch::kind::insert) {
    stream[0].edges.push_back({3, 3});                    // self loop
    stream[0].edges.push_back({1, p.n + 5});              // out of range
    stream[0].edges.push_back({p.n, p.n});                // OOR self loop
    if (stream[0].edges.size() > 2)
      stream[0].edges.push_back(stream[0].edges[0]);      // duplicate
  }

  engine_router router(p.n);
  batch_dynamic_connectivity dynamic(p.n);
  hdt_connectivity hdt(p.n);
  static_recompute_connectivity stat(p.n);

  stream_oracle oracle(p.n);
  size_t batch_index = 0;
  for (const auto& b : stream) {
    SCOPED_TRACE("batch " + std::to_string(batch_index++));
    switch (b.op) {
      case update_batch::kind::insert:
        router.batch_insert(b.edges);
        dynamic.batch_insert(b.edges);
        hdt.batch_insert(b.edges);
        stat.batch_insert(b.edges);
        oracle.insert(b.edges);
        break;
      case update_batch::kind::erase:
        router.batch_delete(b.edges);
        dynamic.batch_delete(b.edges);
        hdt.batch_delete(b.edges);
        stat.batch_delete(b.edges);
        oracle.erase(b.edges);
        break;
      case update_batch::kind::query: {
        auto got_r = router.batch_connected(b.queries);
        auto got_d = dynamic.batch_connected(b.queries);
        auto got_h = hdt.batch_connected(b.queries);
        auto got_s = stat.batch_connected(b.queries);
        for (size_t q = 0; q < b.queries.size(); ++q) {
          auto [u, v] = b.queries[q];
          bool want = oracle.connected(u, v);
          ASSERT_EQ(got_r[q], want) << "router, query " << u << "," << v;
          ASSERT_EQ(got_d[q], want) << "dynamic, query " << u << "," << v;
          ASSERT_EQ(got_h[q], want) << "hdt, query " << u << "," << v;
          ASSERT_EQ(got_s[q], want) << "static, query " << u << "," << v;
        }
        break;
      }
    }
    ASSERT_EQ(router.num_edges(), oracle.num_edges());
  }

  // The trace ends with a deletion burst, so the router must have
  // promoted exactly once and stayed promoted.
  const auto& st = router.stats();
  EXPECT_TRUE(router.promoted());
  EXPECT_EQ(st.promotions, 1u);
  EXPECT_GT(st.promotion_edges, 0u);
  EXPECT_GT(st.phase_switches, 0u);
  EXPECT_GT(st.batches_on_unionfind, 0u);
  EXPECT_GT(st.batches_on_dynamic, 0u);

  // components() labelling agrees with the oracle's min-vertex labels.
  EXPECT_EQ(router.components(), oracle.labels());
  EXPECT_EQ(dynamic.components(), oracle.labels());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RouterDifferential,
    ::testing::Values(diff_params{256, 512, 16, 1, 11},
                      diff_params{256, 512, 16, 1, 12},
                      diff_params{512, 1536, 64, 2, 13},
                      diff_params{1024, 4096, 96, 0, 14},
                      diff_params{1024, 4096, 96, 0, 15},
                      diff_params{2048, 8192, 128, 0, 16}),
    [](const ::testing::TestParamInfo<diff_params>& info) {
      return "n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.batch) + "_w" +
             workers_name(info.param.workers) + "_s" +
             std::to_string(info.param.seed);
    });

// An insert-only trace must never promote: the router stays on the
// union-find engine the whole way and still answers like the oracle.
TEST(RouterDifferential, InsertOnlyTraceNeverPromotes) {
  const vertex_id n = 512;
  auto graph = gen_erdos_renyi(n, 2048, 21);
  auto stream = make_insertion_stream(graph, 64, 22);
  engine_router router(n);
  stream_oracle oracle(n);
  for (const auto& b : stream) {
    router.batch_insert(b.edges);
    oracle.insert(b.edges);
    auto qs = make_query_batch(n, 64, b.edges.empty() ? 1 : b.edges[0].u);
    auto got = router.batch_connected(qs);
    for (size_t q = 0; q < qs.size(); ++q)
      ASSERT_EQ(got[q], oracle.connected(qs[q].first, qs[q].second));
  }
  EXPECT_FALSE(router.promoted());
  EXPECT_EQ(router.stats().promotions, 0u);
  EXPECT_EQ(router.stats().batches_on_dynamic, 0u);
  EXPECT_EQ(router.dynamic_engine(), nullptr);
}

// ---------------------------------------------------------------------
// Promotion boundaries.
// ---------------------------------------------------------------------

TEST(RouterPromotion, DeletionInBatchZeroIsDroppedNotPromoted) {
  engine_router r(16);
  // Very first batch the router ever sees is a deletion. Nothing is
  // present, so it cannot touch anything: dropped, no promotion.
  r.batch_delete(std::vector<edge>{{1, 2}, {3, 3}, {100, 200}});
  EXPECT_FALSE(r.promoted());
  EXPECT_EQ(r.stats().dropped_delete_batches, 1u);
  EXPECT_EQ(r.stats().promotions, 0u);
  EXPECT_EQ(r.num_edges(), 0u);
  EXPECT_FALSE(r.connected(1, 2));
}

TEST(RouterPromotion, AbsentEdgeDeletionsNeverPromote) {
  engine_router r(32);
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {4, 5}});
  // None of these are present: (2,3) was never inserted, (7,7) is a self
  // loop, (0,2) is connected but not an edge, (40,41) is out of range.
  r.batch_delete(std::vector<edge>{{2, 3}, {7, 7}, {0, 2}, {40, 41}});
  EXPECT_FALSE(r.promoted());
  EXPECT_EQ(r.stats().dropped_delete_batches, 1u);
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_TRUE(r.connected(0, 2));
  EXPECT_TRUE(r.connected(4, 5));
  // The first deletion that does touch a present edge promotes — once.
  r.batch_delete(std::vector<edge>{{1, 2}});
  EXPECT_TRUE(r.promoted());
  EXPECT_EQ(r.stats().promotions, 1u);
  EXPECT_EQ(r.stats().promotion_edges, 3u);
  EXPECT_EQ(r.num_edges(), 2u);
  EXPECT_TRUE(r.connected(0, 1));
  EXPECT_FALSE(r.connected(0, 2));
  // Post-promotion absent-edge deletions go to the HDT engine (no more
  // drop counting) and stay correct.
  r.batch_delete(std::vector<edge>{{2, 3}, {40, 41}});
  EXPECT_EQ(r.stats().promotions, 1u);
  EXPECT_EQ(r.num_edges(), 2u);
}

TEST(RouterPromotion, PromotesWithGarbagePendingInAccumulatedSet) {
  const vertex_id n = 64;
  engine_router r(n);
  // Accumulate a set laced with self-loops, duplicates (both
  // orientations), and out-of-range ids, across several batches.
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 0}, {5, 5}, {2, 3}});
  r.batch_insert(std::vector<edge>{{2, 3}, {3, 2}, {63, 64}, {70, 9}});
  r.batch_insert(std::vector<edge>{{10, 11}, {11, 12}, {10, 11}});
  ASSERT_EQ(r.num_edges(), 4u);  // {0,1},{2,3},{10,11},{11,12}
  ASSERT_FALSE(r.promoted());
  // Promote by deleting a present edge; the bulk load must carry exactly
  // the distinct real edges.
  r.batch_delete(std::vector<edge>{{11, 12}});
  EXPECT_TRUE(r.promoted());
  EXPECT_EQ(r.stats().promotion_edges, 4u);
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_TRUE(r.connected(0, 1));
  EXPECT_TRUE(r.connected(2, 3));
  EXPECT_TRUE(r.connected(10, 11));
  EXPECT_FALSE(r.connected(11, 12));
  EXPECT_FALSE(r.connected(5, 6));
  // The promoted engine agrees on the edge count (set semantics).
  ASSERT_NE(r.dynamic_engine(), nullptr);
  EXPECT_EQ(r.dynamic_engine()->num_edges(), 3u);
}

TEST(RouterPromotion, PromotionPreservesComponentStructure) {
  // A graph with several nontrivial components; promotion must not merge
  // or split anything.
  const vertex_id n = 1024;
  auto graph = gen_erdos_renyi(n, 1200, 31);
  engine_router r(n);
  r.batch_insert(graph);
  auto before = r.components();
  ASSERT_FALSE(r.promoted());
  // Delete one present edge to force promotion, then re-insert it: the
  // labelling must round-trip.
  edge victim = graph[17].canonical();
  r.batch_delete(std::vector<edge>{victim});
  ASSERT_TRUE(r.promoted());
  r.batch_insert(std::vector<edge>{victim});
  EXPECT_EQ(r.components(), before);
}

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

TEST(RouterQuery, UpdateAfterQueryIsVisiblePrePromotion) {
  engine_router r(8);
  r.batch_insert(std::vector<edge>{{0, 1}});
  query_list qs = {{0, 1}, {2, 3}};
  auto a = r.batch_connected(qs);
  EXPECT_TRUE(a[0]);
  EXPECT_FALSE(a[1]);
  // Still pre-promotion: the insert must show in the next query batch.
  r.batch_insert(std::vector<edge>{{1, 2}, {2, 3}});
  ASSERT_FALSE(r.promoted());
  auto b = r.batch_connected(qs);
  EXPECT_TRUE(b[0]);
  EXPECT_TRUE(b[1]) << "query answered from the pre-update state";
}

TEST(RouterQuery, UpdateAfterQueryIsVisiblePostPromotion) {
  engine_router r(8);
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {4, 5}});
  r.batch_delete(std::vector<edge>{{1, 2}});  // promotes
  ASSERT_TRUE(r.promoted());
  query_list qs = {{0, 2}, {4, 5}, {0, 5}};
  auto a = r.batch_connected(qs);
  EXPECT_FALSE(a[0]);
  EXPECT_TRUE(a[1]);
  EXPECT_FALSE(a[2]);
  // Reconnect through the dynamic engine.
  r.batch_insert(std::vector<edge>{{2, 4}, {1, 2}});
  auto b = r.batch_connected(qs);
  EXPECT_TRUE(b[0]);
  EXPECT_TRUE(b[1]);
  EXPECT_TRUE(b[2]) << "query answered from the pre-update state";
  // And a deletion shows too.
  r.batch_delete(std::vector<edge>{{2, 4}});
  auto c = r.batch_connected(qs);
  EXPECT_TRUE(c[0]);   // 0-1-2 still a path
  EXPECT_TRUE(c[1]);
  EXPECT_FALSE(c[2]);
}

TEST(RouterQuery, OutOfRangeIdsAnswerFalse) {
  const vertex_id n = 16;
  engine_router r(n);
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {5, 6}});
  // Out-of-range ids mixed with real queries in one batch: every query
  // with an id >= n answers false (also an id paired with itself), and
  // the in-range queries around them keep their answers.
  const query_list qs = {{0, 2}, {n, 0},         {0, n},        {2, 1},
                         {n, n}, {5, 6},         {kNoVertex, 5}, {3, 3},
                         {6, n + 100},           {n - 1, n - 1}};
  std::vector<bool> want = {true, false, false, true,  false,
                            true, false, true,  false, true};
  auto check = [&](const char* phase) {
    EXPECT_EQ(r.batch_connected(qs), want) << phase;
    for (size_t i = 0; i < qs.size(); ++i)
      EXPECT_EQ(r.connected(qs[i].first, qs[i].second), want[i])
          << phase << ", query " << i;
  };
  ASSERT_FALSE(r.promoted());
  check("before promotion");
  r.batch_delete(std::vector<edge>{{5, 6}});  // promotes
  ASSERT_TRUE(r.promoted());
  want[5] = false;
  check("after promotion");
}

// Router queries write nothing the router owns, so several threads may
// send query batches to one router at once. Every answer is recorded as a
// served read of the current version and must pass check_reads; the TSan
// build runs this as the data-race check.
TEST(RouterQuery, ConcurrentQueryBatchesMatchOracle) {
  const vertex_id n = 2048;
  const auto graph = gen_erdos_renyi(n, 2 * static_cast<size_t>(n), 51);
  const std::span<const edge> deleted(graph.data(), graph.size() / 4);
  constexpr int kThreads = 2;
  constexpr int kBatches = 100;
  constexpr size_t kQueries = 256;
  engine_router r(n);
  r.batch_insert(graph);
  update_stream log = {{update_batch::kind::insert, graph, {}}};

  auto hammer_and_check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    std::vector<std::vector<query_list>> sent(kThreads);
    std::vector<std::vector<std::vector<bool>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int b = 0; b < kBatches; ++b) {
          sent[t].push_back(make_query_batch(
              n, kQueries, static_cast<uint64_t>(1000 * t + b + 1)));
          got[t].push_back(r.batch_connected(sent[t].back()));
        }
      });
    }
    for (auto& th : threads) th.join();
    served_sample sample;
    sample.committed = log.size();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t].size(), static_cast<size_t>(kBatches));
      for (int b = 0; b < kBatches; ++b) {
        const query_list& qs = sent[t][b];
        ASSERT_EQ(got[t][b].size(), qs.size());
        for (size_t q = 0; q < qs.size(); ++q)
          sample.records.push_back({qs[q].first, qs[q].second, log.size(), 0,
                                    false, got[t][b][q]});
      }
    }
    const read_check c = check_reads(std::move(sample), log, n);
    for (const std::string& m : c.messages) ADD_FAILURE() << m;
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.checked, size_t{kThreads} * kBatches * kQueries);
  };

  ASSERT_FALSE(r.promoted());
  hammer_and_check("before promotion");
  r.batch_delete(deleted);  // promotes
  ASSERT_TRUE(r.promoted());
  log.push_back({update_batch::kind::erase, {deleted.begin(), deleted.end()}, {}});
  hammer_and_check("after promotion");
}

// ---------------------------------------------------------------------
// Statistics sanity.
// ---------------------------------------------------------------------

TEST(RouterStats, CountersAccountForEveryBatch) {
  engine_router r(64);
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 2}});   // uf
  r.batch_insert(std::vector<edge>{{2, 3}});           // uf
  (void)r.batch_connected(query_list{{0, 3}});
  r.batch_delete(std::vector<edge>{{9, 10}});          // dropped, uf
  r.batch_delete(std::vector<edge>{{1, 2}});           // promotes, dynamic
  r.batch_insert(std::vector<edge>{{5, 6}});           // dynamic
  (void)r.batch_connected(query_list{{5, 6}});
  const auto& st = r.stats();
  EXPECT_EQ(st.insert_batches, 3u);
  EXPECT_EQ(st.delete_batches, 2u);
  // Update batches are attributed to exactly one engine.
  EXPECT_EQ(st.batches_on_unionfind + st.batches_on_dynamic,
            st.insert_batches + st.delete_batches);
  EXPECT_EQ(st.batches_on_unionfind, 3u);  // 2 inserts + dropped delete
  EXPECT_EQ(st.batches_on_dynamic, 2u);    // promoting delete + insert
  EXPECT_EQ(st.dropped_delete_batches, 1u);
  EXPECT_EQ(st.promotions, 1u);
  // insert -> delete -> insert: queries are not a phase.
  EXPECT_EQ(st.phase_switches, 2u);
}

TEST(RouterStats, QueriesLeaveStatisticsUntouched) {
  engine_router r(64);
  r.batch_insert(std::vector<edge>{{0, 1}, {1, 2}});
  for (int phase = 0; phase < 2; ++phase) {
    const router_statistics before = r.stats();
    (void)r.batch_connected(query_list{{0, 2}, {3, 4}, {70, 1}});
    EXPECT_TRUE(r.connected(0, 2));
    EXPECT_TRUE(before == r.stats()) << "phase " << phase;
    r.batch_delete(std::vector<edge>{{1, 2}});  // promotes on phase 0
    r.batch_insert(std::vector<edge>{{1, 2}});
  }
  // Two delete/insert rounds after the first insert: four switches.
  EXPECT_EQ(r.stats().phase_switches, 4u);
}

}  // namespace
}  // namespace bdc
