// Euler-tour forest contract tests (blocked_ett), value-parameterized
// over the shared worker grid (tests/test_substrates.hpp): model-based
// randomized batches of links/cuts against a union-find oracle,
// augmentation counters, fetch primitives, and internal consistency after
// every batch. The 1-worker rows drive the sequential batch paths, the
// others the grouped parallel ones.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "ett/blocked_ett.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::sub_config;
using ::bdc::testing::worker_pool_guard;

void link(blocked_ett& f, edge e) { f.batch_link({&e, 1}); }
void cut(blocked_ett& f, edge e) { f.batch_cut({&e, 1}); }
uint32_t size_of(const blocked_ett& f, vertex_id v) {
  return f.component_counts(v).vertices;
}

class EttSubstrate : public ::testing::TestWithParam<sub_config> {
 private:
  worker_pool_guard pool_{GetParam().workers};
};

std::string config_name(const ::testing::TestParamInfo<sub_config>& info) {
  return info.param.name;
}

TEST_P(EttSubstrate, EmptyForestBasics) {
  blocked_ett f(10);
  EXPECT_EQ(f.num_vertices(), 10u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_TRUE(f.connected(3, 3));
  EXPECT_EQ(size_of(f, 4), 1u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, SingleLinkCut) {
  blocked_ett f(4);
  link(f, {0, 1});
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.has_edge({1, 0}));
  EXPECT_EQ(size_of(f, 0), 2u);
  EXPECT_TRUE(f.check_consistency().empty());
  cut(f, {0, 1});
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_EQ(size_of(f, 0), 1u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, LinkWholePathThenCutMiddle) {
  const vertex_id n = 64;
  blocked_ett f(n);
  auto path = gen_path(n);
  f.batch_link(path);
  EXPECT_TRUE(f.connected(0, n - 1));
  EXPECT_EQ(size_of(f, 17), n);
  cut(f, {31, 32});
  EXPECT_FALSE(f.connected(0, n - 1));
  EXPECT_TRUE(f.connected(0, 31));
  EXPECT_TRUE(f.connected(32, n - 1));
  EXPECT_EQ(size_of(f, 0), 32u);
  EXPECT_EQ(size_of(f, 63), 32u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, StarBatchLink) {
  const vertex_id n = 100;
  blocked_ett f(n);
  f.batch_link(gen_star(n));
  EXPECT_EQ(size_of(f, 0), n);
  EXPECT_TRUE(f.check_consistency().empty());
  // Cut every other spoke in one batch.
  std::vector<edge> cuts;
  for (vertex_id i = 1; i < n; i += 2) cuts.push_back({0, i});
  f.batch_cut(cuts);
  for (vertex_id i = 1; i < n; ++i)
    EXPECT_EQ(f.connected(0, i), i % 2 == 0) << i;
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, CountsAndFetch) {
  blocked_ett f(8);
  f.batch_link(gen_path(8));
  std::vector<count_delta> deltas = {{2, 1, 3}, {5, 0, 2}};
  f.batch_add_counts(deltas);
  auto cc = f.component_counts(0);
  EXPECT_EQ(cc.vertices, 8u);
  EXPECT_EQ(cc.tree_edges, 1u);
  EXPECT_EQ(cc.nontree_edges, 5u);
  // Fetch should return slots summing to min(want, 5).
  for (uint64_t want : {1ul, 3ul, 5ul, 99ul}) {
    auto slots = f.fetch_nontree(4, want);
    uint64_t sum = 0;
    for (auto& [v, take] : slots) {
      EXPECT_TRUE(v == 2 || v == 5);
      sum += take;
    }
    EXPECT_EQ(sum, std::min<uint64_t>(want, 5));
  }
  auto tslots = f.fetch_tree(7, 10);
  ASSERT_EQ(tslots.size(), 1u);
  EXPECT_EQ(tslots[0].first, 2u);
  EXPECT_EQ(tslots[0].second, 1u);
  // Deltas can be negative.
  std::vector<count_delta> down = {{2, -1, -3}, {5, 0, -2}};
  f.batch_add_counts(down);
  cc = f.component_counts(0);
  EXPECT_EQ(cc.tree_edges, 0u);
  EXPECT_EQ(cc.nontree_edges, 0u);
}

TEST_P(EttSubstrate, ComponentVerticesMatchesTour) {
  blocked_ett f(10);
  f.batch_link(std::vector<edge>{{0, 1}, {1, 2}, {2, 3}});
  auto vs = f.component_vertices(2);
  std::set<vertex_id> got(vs.begin(), vs.end());
  EXPECT_EQ(got, (std::set<vertex_id>{0, 1, 2, 3}));
}

TEST_P(EttSubstrate, RelinkAfterCutSameBatchBoundary) {
  // Cut and relink the same edge repeatedly: exercises the pooled node
  // recycling paths (cut arcs must be reusable by the next link).
  blocked_ett f(6);
  for (int i = 0; i < 50; ++i) {
    link(f, {2, 4});
    ASSERT_TRUE(f.connected(2, 4));
    cut(f, {2, 4});
    ASSERT_FALSE(f.connected(2, 4));
  }
  EXPECT_TRUE(f.check_consistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Substrates, EttSubstrate,
                         ::testing::ValuesIn(kSubConfigs), config_name);

class EttRandomSweep
    : public ::testing::TestWithParam<
          std::tuple<std::pair<int, int>, sub_config>> {};

TEST_P(EttRandomSweep, BatchesAgainstUnionFindOracle) {
  auto [trial_n, cfg] = GetParam();
  auto [trial, nn] = trial_n;
  worker_pool_guard pool(cfg.workers);
  const vertex_id n = static_cast<vertex_id>(nn);
  random_stream rs(trial * 131 + nn);
  blocked_ett f(n);
  stream_oracle oracle(n);
  std::set<std::pair<vertex_id, vertex_id>> tree_edges;  // picks cuts
  for (int round = 0; round < 25; ++round) {
    // Random batch of links among distinct components.
    std::vector<edge> batch;
    int tries = 10 + static_cast<int>(rs.next(30));
    for (int t = 0; t < tries; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v || oracle.connected(u, v)) continue;
      batch.push_back({u, v});
      oracle.insert({&batch.back(), 1});
    }
    f.batch_link(batch);
    for (auto e : batch)
      tree_edges.insert({e.canonical().u, e.canonical().v});
    ASSERT_TRUE(f.check_consistency().empty()) << "after link r" << round;

    // Random batch of cuts.
    std::vector<edge> cuts;
    for (auto& te : tree_edges)
      if (rs.next(3) == 0) cuts.push_back({te.first, te.second});
    f.batch_cut(cuts);
    oracle.erase(cuts);
    for (auto& c : cuts)
      tree_edges.erase({c.canonical().u, c.canonical().v});
    ASSERT_TRUE(f.check_consistency().empty()) << "after cut r" << round;

    // Oracle comparison: connectivity, sizes, batch queries.
    std::vector<std::pair<vertex_id, vertex_id>> qs;
    for (int q = 0; q < 60; ++q)
      qs.push_back({static_cast<vertex_id>(rs.next(n)),
                    static_cast<vertex_id>(rs.next(n))});
    for (auto [u, v] : qs)
      ASSERT_EQ(f.connected(u, v), oracle.connected(u, v))
          << "round " << round;
    for (int q = 0; q < 8; ++q) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      size_t sz = 0;
      for (vertex_id x = 0; x < n; ++x)
        if (oracle.connected(u, x)) sz++;
      ASSERT_EQ(size_of(f, u), sz) << "round " << round;
    }
    // Representative semantics.
    auto reps = f.batch_find_rep(std::vector<vertex_id>{0, n / 2, n - 1});
    EXPECT_EQ(reps[0] == reps[2], oracle.connected(0, n - 1));
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<
        std::tuple<std::pair<int, int>, sub_config>>& info) {
  const auto& trial_n = std::get<0>(info.param);
  return std::string(std::get<1>(info.param).name) + "_t" +
         std::to_string(trial_n.first) + "_n" +
         std::to_string(trial_n.second);
}

INSTANTIATE_TEST_SUITE_P(
    Trials, EttRandomSweep,
    ::testing::Combine(
        ::testing::Values(std::pair<int, int>{0, 2},
                          std::pair<int, int>{1, 3},
                          std::pair<int, int>{2, 16},
                          std::pair<int, int>{3, 100},
                          std::pair<int, int>{4, 100},
                          std::pair<int, int>{5, 400},
                          std::pair<int, int>{6, 1000}),
        ::testing::ValuesIn(kSubConfigs)),
    sweep_name);

}  // namespace
}  // namespace bdc
