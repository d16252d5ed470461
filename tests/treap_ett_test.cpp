// Sequential treap ETT tests (the HDT substrate).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ett/treap_ett.hpp"
#include "gen/graph_gen.hpp"
#include "spanning/union_find.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

TEST(TreapEtt, Basics) {
  treap_ett f(5);
  EXPECT_FALSE(f.connected(0, 1));
  f.link(0, 1);
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.has_edge(1, 0));
  EXPECT_EQ(f.component_size(0), 2u);
  EXPECT_TRUE(f.check_consistency().empty());
  f.cut(0, 1);
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_EQ(f.component_size(1), 1u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST(TreapEtt, PathCutMiddle) {
  const vertex_id n = 64;
  treap_ett f(n);
  for (auto e : gen_path(n)) f.link(e.u, e.v);
  EXPECT_TRUE(f.connected(0, n - 1));
  f.cut(20, 21);
  EXPECT_FALSE(f.connected(0, n - 1));
  EXPECT_EQ(f.component_size(0), 21u);
  EXPECT_EQ(f.component_size(n - 1), n - 21);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST(TreapEtt, CountersAndSlotSearch) {
  treap_ett f(10);
  for (auto e : gen_path(10)) f.link(e.u, e.v);
  EXPECT_EQ(f.find_nontree_slot(0), kNoVertex);
  f.add_counts(3, 0, 2);
  f.add_counts(7, 1, 0);
  EXPECT_EQ(f.find_nontree_slot(0), 3u);
  EXPECT_EQ(f.find_tree_slot(9), 7u);
  auto cc = f.component_counts(5);
  EXPECT_EQ(cc.vertices, 10u);
  EXPECT_EQ(cc.tree_edges, 1u);
  EXPECT_EQ(cc.nontree_edges, 2u);
  f.add_counts(3, 0, -2);
  EXPECT_EQ(f.find_nontree_slot(0), kNoVertex);
  EXPECT_TRUE(f.check_consistency().empty());
  // Counter localized to the component, not globally.
  EXPECT_EQ(f.component_counts(5).nontree_edges, 0u);
}

class TreapRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreapRandomSweep, LinkCutAgainstOracle) {
  int trial = GetParam();
  random_stream rs(trial * 37 + 2);
  const vertex_id n = 150;
  treap_ett f(n, 900 + trial);
  std::set<std::pair<vertex_id, vertex_id>> tree_edges;
  for (int step = 0; step < 3000; ++step) {
    vertex_id u = static_cast<vertex_id>(rs.next(n));
    vertex_id v = static_cast<vertex_id>(rs.next(n));
    if (u == v) continue;
    if (!f.connected(u, v)) {
      f.link(u, v);
      tree_edges.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
    } else if (!tree_edges.empty() && rs.next(2) == 0) {
      // Cut a random existing tree edge.
      auto it = tree_edges.begin();
      std::advance(it, rs.next(tree_edges.size()));
      f.cut(it->first, it->second);
      tree_edges.erase(it);
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(f.check_consistency().empty()) << "step " << step;
      union_find oracle(n);
      for (auto& te : tree_edges) oracle.unite(te.first, te.second);
      for (int q = 0; q < 100; ++q) {
        vertex_id a = static_cast<vertex_id>(rs.next(n));
        vertex_id b = static_cast<vertex_id>(rs.next(n));
        ASSERT_EQ(f.connected(a, b), oracle.connected(a, b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, TreapRandomSweep, ::testing::Range(0, 6));

TEST(TreapEtt, ComponentVerticesTourOrder) {
  treap_ett f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  auto vs = f.component_vertices(1);
  std::set<vertex_id> got(vs.begin(), vs.end());
  EXPECT_EQ(got, (std::set<vertex_id>{0, 1, 2, 3}));
  EXPECT_EQ(vs.size(), 4u);
}

TEST(TreapEtt, BatchSurfaceMatchesSequential) {
  // Drive the batch surface and cross-check the per-edge view.
  const vertex_id n = 32;
  treap_ett f(n);
  treap_ett& s = f;
  auto path = gen_path(n);
  s.batch_link(path);
  EXPECT_EQ(s.num_edges(), path.size());
  EXPECT_TRUE(f.connected(0, n - 1));

  std::vector<count_delta> deltas = {{3, 1, 2}, {9, 0, 1}};
  s.batch_add_counts(deltas);
  auto cc = s.component_counts(0);
  EXPECT_EQ(cc.tree_edges, 1u);
  EXPECT_EQ(cc.nontree_edges, 3u);
  auto slots = s.fetch_nontree(0, 99);
  uint64_t sum = 0;
  for (auto& [v, take] : slots) {
    EXPECT_TRUE(v == 3 || v == 9);
    sum += take;
  }
  EXPECT_EQ(sum, 3u);
  EXPECT_EQ(f.find_nontree_slot(n - 1), slots.front().first);

  std::vector<std::pair<vertex_id, vertex_id>> qs = {
      {0, n - 1}, {1, 2}, {5, 5}};
  EXPECT_EQ(s.batch_connected(qs), (std::vector<bool>{true, true, true}));
  auto reps = s.batch_find_rep(std::vector<vertex_id>{0, n / 2, n - 1});
  EXPECT_EQ(reps[0], reps[1]);
  EXPECT_EQ(reps[1], reps[2]);

  s.batch_add_counts(std::vector<count_delta>{
      {3, -1, -2}, {9, 0, -1}});
  std::vector<edge> cuts(path.begin(), path.begin() + 8);
  s.batch_cut(cuts);
  EXPECT_FALSE(f.connected(0, 8));
  EXPECT_TRUE(f.connected(8, n - 1));
  EXPECT_TRUE(s.check_consistency().empty());
}

// ---------------------------------------------------------------------
// Parallel bulk-mutation phases. Every batch below is comfortably above
// the substrate's sequential-fallback cutoff, and check_consistency (heap
// order, aggregates, tour orientation, arc registration) runs after every
// bulk op — the join-based rebuild splices tours from many segments, and
// a misplaced segment must fail loudly here, not in a downstream suite.
// ---------------------------------------------------------------------

namespace {

void expect_consistent(const treap_ett& f, const char* where) {
  std::string rep = f.check_consistency();
  ASSERT_TRUE(rep.empty()) << where << ": " << rep;
}

// Forces a multi-worker pool so the join-based parallel mutation phases
// actually run (a 1-worker pool takes the sequential fallback), restoring
// the previous pool afterwards.
class TreapEttParallel : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_workers_ = num_workers();
    set_num_workers(4);
  }
  void TearDown() override { set_num_workers(saved_workers_); }

 private:
  unsigned saved_workers_ = 0;
};

}  // namespace

TEST_F(TreapEttParallel, BulkLinkCutAgainstOracle) {
  const vertex_id n = 2000;
  treap_ett f(n, 77);
  // One bulk link of a whole random forest: many independent groups plus
  // large merged components.
  auto forest = gen_random_forest(n, 40, 7);
  f.batch_link(forest);
  expect_consistent(f, "after bulk link");
  union_find oracle(n);
  for (auto& e : forest) oracle.unite(e.u, e.v);
  random_stream rs(21);
  for (int q = 0; q < 500; ++q) {
    vertex_id a = static_cast<vertex_id>(rs.next(n));
    vertex_id b = static_cast<vertex_id>(rs.next(n));
    ASSERT_EQ(f.connected(a, b), oracle.connected(a, b)) << a << "," << b;
  }
  // Bulk cut of a large random subset, including nested subtree cuts.
  std::vector<edge> cuts;
  for (size_t i = 0; i < forest.size(); i += 3) cuts.push_back(forest[i]);
  f.batch_cut(cuts);
  expect_consistent(f, "after bulk cut");
  union_find oracle2(n);
  std::set<std::pair<vertex_id, vertex_id>> cut_set;
  for (auto& e : cuts)
    cut_set.insert({e.canonical().u, e.canonical().v});
  for (auto& e : forest)
    if (!cut_set.count({e.canonical().u, e.canonical().v}))
      oracle2.unite(e.u, e.v);
  for (int q = 0; q < 500; ++q) {
    vertex_id a = static_cast<vertex_id>(rs.next(n));
    vertex_id b = static_cast<vertex_id>(rs.next(n));
    ASSERT_EQ(f.connected(a, b), oracle2.connected(a, b)) << a << "," << b;
  }
}

TEST_F(TreapEttParallel, SingleComponentBulkOps) {
  // The worst case for tour partitioning: every link lands in ONE merged
  // component (a path), then one bulk cut shatters it entirely.
  const vertex_id n = 1024;
  treap_ett f(n, 5);
  auto path = gen_path(n);
  f.batch_link(path);
  expect_consistent(f, "after path bulk link");
  EXPECT_TRUE(f.connected(0, n - 1));
  EXPECT_EQ(f.component_size(0), n);
  f.batch_cut(path);
  expect_consistent(f, "after full shatter");
  for (vertex_id v = 0; v < n; ++v) ASSERT_EQ(f.component_size(v), 1u);
}

TEST_F(TreapEttParallel, StarBulkOps) {
  // Star: one tree entered many times — every link attaches at vertex 0,
  // so the emission splits one tour at hundreds of sentinels.
  const vertex_id n = 600;
  treap_ett f(n, 3);
  auto star = gen_star(n);
  f.batch_link(star);
  expect_consistent(f, "after star bulk link");
  EXPECT_EQ(f.component_size(0), n);
  std::vector<edge> odd_cuts;
  for (vertex_id i = 1; i < n; i += 2) odd_cuts.push_back({0, i});
  f.batch_cut(odd_cuts);
  expect_consistent(f, "after star bulk cut");
  for (vertex_id i = 1; i < n; ++i)
    ASSERT_EQ(f.connected(0, i), i % 2 == 0);
}

TEST_F(TreapEttParallel, BulkAddCounts) {
  const vertex_id n = 800;
  treap_ett f(n, 9);
  f.batch_link(gen_random_forest(n, 8, 11));
  std::vector<count_delta> up;
  for (vertex_id v = 0; v < n; v += 2) up.push_back({v, 1, 2});
  f.batch_add_counts(up);
  expect_consistent(f, "after bulk add_counts");
  auto cc = f.component_counts(0);
  EXPECT_GT(cc.tree_edges, 0u);
  EXPECT_EQ(cc.nontree_edges, 2 * cc.tree_edges);
  std::vector<count_delta> down;
  for (vertex_id v = 0; v < n; v += 2) down.push_back({v, -1, -2});
  f.batch_add_counts(down);
  expect_consistent(f, "after bulk counter removal");
  EXPECT_EQ(f.component_counts(0).nontree_edges, 0u);
  EXPECT_EQ(f.find_nontree_slot(0), kNoVertex);
}

TEST_F(TreapEttParallel, InterleavedBulkRounds) {
  // Mixed regime: alternating bulk links and bulk cuts over many rounds,
  // consistency-checked after every phase, queries cross-checked against a
  // union-find rebuild.
  const vertex_id n = 500;
  treap_ett f(n, 13);
  random_stream rs(99);
  std::set<std::pair<vertex_id, vertex_id>> present;
  for (int round = 0; round < 12; ++round) {
    std::vector<edge> links;
    {
      union_find acyclic(n);
      for (auto& pe : present) acyclic.unite(pe.first, pe.second);
      for (int t = 0; t < 200 && links.size() < 64; ++t) {
        vertex_id u = static_cast<vertex_id>(rs.next(n));
        vertex_id v = static_cast<vertex_id>(rs.next(n));
        if (u == v || !acyclic.unite(u, v)) continue;
        links.push_back({u, v});
        present.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
      }
    }
    f.batch_link(links);
    expect_consistent(f, "after round link");
    std::vector<edge> cuts;
    for (auto& pe : present)
      if (rs.next(100) < 40) cuts.push_back({pe.first, pe.second});
    for (auto& e : cuts) present.erase({e.u, e.v});
    f.batch_cut(cuts);
    expect_consistent(f, "after round cut");
    union_find oracle(n);
    for (auto& pe : present) oracle.unite(pe.first, pe.second);
    for (int q = 0; q < 120; ++q) {
      vertex_id a = static_cast<vertex_id>(rs.next(n));
      vertex_id b = static_cast<vertex_id>(rs.next(n));
      ASSERT_EQ(f.connected(a, b), oracle.connected(a, b))
          << "round " << round;
    }
    ASSERT_EQ(f.num_edges(), present.size());
  }
}

TEST(TreapEtt, StarStress) {
  const vertex_id n = 300;
  treap_ett f(n);
  for (vertex_id i = 1; i < n; ++i) f.link(0, i);
  EXPECT_EQ(f.component_size(0), n);
  for (vertex_id i = 1; i < n; i += 2) f.cut(0, i);
  for (vertex_id i = 1; i < n; ++i)
    EXPECT_EQ(f.connected(0, i), i % 2 == 0);
  EXPECT_TRUE(f.check_consistency().empty());
}

}  // namespace
}  // namespace bdc
