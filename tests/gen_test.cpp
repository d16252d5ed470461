// Generator sanity: sizes, distinctness, determinism, stream structure;
// and the replay oracle that checks replays of those streams.
#include <gtest/gtest.h>

#include <set>

#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "gen/update_stream.hpp"
#include "spanning/union_find.hpp"

namespace bdc {
namespace {

void expect_distinct_canonical(const std::vector<edge>& es) {
  std::set<std::pair<vertex_id, vertex_id>> seen;
  for (const edge& e : es) {
    ASSERT_FALSE(e.is_self_loop());
    edge c = e.canonical();
    ASSERT_TRUE(seen.insert({c.u, c.v}).second) << "duplicate " << c;
  }
}

TEST(Gen, ErdosRenyi) {
  auto es = gen_erdos_renyi(1000, 5000, 7);
  EXPECT_EQ(es.size(), 5000u);
  expect_distinct_canonical(es);
  // Deterministic given the seed.
  EXPECT_EQ(gen_erdos_renyi(1000, 5000, 7), es);
  EXPECT_NE(gen_erdos_renyi(1000, 5000, 8), es);
}

TEST(Gen, RandomTreeIsSpanningTree) {
  auto es = gen_random_tree(500, 3);
  EXPECT_EQ(es.size(), 499u);
  union_find uf(500);
  for (auto& e : es) ASSERT_TRUE(uf.unite(e.u, e.v)) << "cycle";
  for (vertex_id v = 1; v < 500; ++v) ASSERT_TRUE(uf.connected(0, v));
}

TEST(Gen, RandomForestComponentCount) {
  auto es = gen_random_forest(1000, 10, 4);
  union_find uf(1000);
  for (auto& e : es) ASSERT_TRUE(uf.unite(e.u, e.v));
  std::set<uint32_t> roots;
  for (vertex_id v = 0; v < 1000; ++v) roots.insert(uf.find(v));
  EXPECT_EQ(roots.size(), 10u);
}

TEST(Gen, StructuredShapes) {
  EXPECT_EQ(gen_path(100).size(), 99u);
  EXPECT_EQ(gen_star(100).size(), 99u);
  auto grid = gen_grid(5, 7);
  EXPECT_EQ(grid.size(), 5u * 6 + 4u * 7);
  expect_distinct_canonical(grid);
}

TEST(Gen, RmatShape) {
  auto es = gen_rmat(1 << 10, 4000, 11);
  EXPECT_EQ(es.size(), 4000u);
  expect_distinct_canonical(es);
  // Power-law-ish: max degree well above average.
  std::vector<size_t> deg(1 << 10, 0);
  for (auto& e : es) {
    deg[e.u]++;
    deg[e.v]++;
  }
  size_t mx = *std::max_element(deg.begin(), deg.end());
  EXPECT_GT(mx, 8u * 2 * 4000 / (1 << 10));
}

TEST(Stream, InsertionStreamCoversGraph) {
  auto graph = gen_erdos_renyi(100, 300, 5);
  auto stream = make_insertion_stream(graph, 64, 9);
  size_t total = 0;
  for (auto& b : stream) {
    EXPECT_EQ(b.op, update_batch::kind::insert);
    EXPECT_LE(b.edges.size(), 64u);
    total += b.edges.size();
  }
  EXPECT_EQ(total, graph.size());
}

TEST(Stream, DeletionStreamDeletesEverythingOnce) {
  auto graph = gen_erdos_renyi(100, 300, 6);
  auto stream = make_deletion_stream(graph, 100, 50, 32, 8, 10);
  size_t inserted = 0, deleted = 0, queries = 0;
  for (auto& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        inserted += b.edges.size();
        break;
      case update_batch::kind::erase:
        EXPECT_LE(b.edges.size(), 32u);
        deleted += b.edges.size();
        break;
      case update_batch::kind::query:
        EXPECT_EQ(b.queries.size(), 8u);
        queries += b.queries.size();
        break;
    }
  }
  EXPECT_EQ(inserted, graph.size());
  EXPECT_EQ(deleted, graph.size());
  EXPECT_GT(queries, 0u);
}

TEST(Stream, SlidingWindowBoundsLiveEdges) {
  auto graph = gen_erdos_renyi(200, 2000, 8);
  auto stream = make_sliding_window_stream(graph, 500, 100, 12);
  size_t live = 0, max_live = 0;
  for (auto& b : stream) {
    if (b.op == update_batch::kind::insert) {
      live += b.edges.size();
    } else if (b.op == update_batch::kind::erase) {
      live -= b.edges.size();
    }
    max_live = std::max(max_live, live);
  }
  EXPECT_LE(max_live, 500u + 100u);
  EXPECT_GT(max_live, 400u);
}

TEST(Stream, ShuffleIsPermutation) {
  auto graph = gen_path(1000);
  auto shuffled = graph;
  shuffle_edges(shuffled, 42);
  EXPECT_NE(shuffled, graph);
  auto a = graph, b = shuffled;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// The replay oracle (gen/replay_oracle.hpp).
// ---------------------------------------------------------------------

TEST(ReplayOracle, AppliesTheInputRulesOnce) {
  stream_oracle o(8);
  // Both orientations, self-loops and out-of-range ids: {1,2} and {5,6}.
  o.insert(std::vector<edge>{{1, 2}, {2, 1}, {3, 3}, {4, 9}, {9, 9}, {6, 5}});
  EXPECT_EQ(o.num_edges(), 2u);
  EXPECT_TRUE(o.connected(2, 1));
  EXPECT_TRUE(o.connected(3, 3));
  EXPECT_FALSE(o.connected(9, 9));  // out of range answers false
  o.erase(std::vector<edge>{{2, 1}, {7, 8}, {4, 9}});
  EXPECT_EQ(o.num_edges(), 1u);
  EXPECT_EQ(o.labels(), (std::vector<vertex_id>{0, 1, 2, 3, 4, 5, 5, 7}));
  // A no-op update is still a version; a query batch is not an update.
  o.insert(std::vector<edge>{});
  o.apply({update_batch::kind::query, {}, {{0, 1}}});
  EXPECT_EQ(o.version(), 3u);
  // Inserts after an erase extend the rebuilt forest.
  o.insert(std::vector<edge>{{0, 5}, {6, 7}});
  EXPECT_EQ(o.labels(), (std::vector<vertex_id>{0, 1, 2, 3, 4, 0, 0, 0}));
}

TEST(ReplayOracle, ReservoirSpreadsOverTheWholeReplay) {
  constexpr uint64_t kRecords = uint64_t{1} << 20;
  read_sample sample;
  random_stream rng(0x5eed);
  for (uint64_t i = 0; i < kRecords; ++i)  // rising, as a replay's are
    sample.offer({0, 0, i, 0, false, false}, rng);
  EXPECT_EQ(sample.seen(), kRecords);
  ASSERT_EQ(sample.kept().size(), read_sample::kCapacity);
  size_t last_tenth = 0;
  for (const served_record& r : sample.kept())
    last_tenth += r.version >= kRecords - kRecords / 10;
  // A uniform sample keeps ~10% of its records from the last tenth; one
  // that kept the first kCapacity reads would keep none.
  EXPECT_GE(last_tenth, read_sample::kCapacity / 20);
}

TEST(ReplayOracle, CheckReadsHoldsEachReadToItsVersion) {
  // Version 0: empty; 1: {0,1}; 2: {0,1} deleted again.
  const update_stream log = {{update_batch::kind::insert, {{0, 1}}, {}},
                             {update_batch::kind::query, {}, {{0, 1}}},
                             {update_batch::kind::erase, {{1, 0}}, {}}};
  // Reads of (0,1): {u, v, version, size, pinned, ans}.
  served_sample good;
  good.committed = 2;
  good.records = {{0, 1, 2, 0, false, false},
                  {0, 1, 1, 2, true, true},
                  {0, 1, 0, 0, false, false},
                  {0, 1, 1, 0, false, true}};
  const read_check ok = check_reads(good, log, 4);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.checked, 4u);
  EXPECT_EQ(ok.first_version, 0u);
  EXPECT_EQ(ok.last_version, 2u);

  auto mismatches = [&](auto mutate) {
    served_sample bad = good;
    mutate(bad);
    return check_reads(std::move(bad), log, 4).mismatches;
  };
  EXPECT_EQ(mismatches([](auto& s) { s.records[3].ans = false; }), 1u);
  EXPECT_EQ(mismatches([](auto& s) { s.records[1].size = 1; }), 1u);
  EXPECT_EQ(mismatches([](auto& s) { s.records[0].version = 3; }), 1u);
  EXPECT_EQ(mismatches([](auto& s) { s.committed = 1; }), 1u);
  served_sample stale = good;
  stale.stale = 1;
  const read_check st = check_reads(stale, log, 4);
  EXPECT_EQ(st.mismatches, 0u);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(check_reads(served_sample{}, {}, 4).ok()) << "nothing read";
}

}  // namespace
}  // namespace bdc
