// Randomized property tests for the core structure: every engine, several
// graph shapes and batch regimes, driven in lock-step with the stream
// oracle (gen/replay_oracle.hpp) AND the independent sequential HDT
// implementation.
// Invariants are re-validated after every batch.
//
// Every scenario runs over the shared engine table (tests/
// test_substrates.hpp): three worker-pool sizes — 1, 2, and the hardware
// default — because scheduler-dependent bugs (racy batch phases, grouping
// that silently assumes one worker) only surface when the pool actually
// forks, and CI machines default to whatever nproc happens to be (the
// suite's stress.* twin pins "hw" to 4); each with the snapshot read
// service off and on, and the serving rows also hold the published
// labels to a from-scratch walk after every batch. Every graph size runs
// under every level search.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::expect_snapshot_matches;
using ::bdc::testing::kEngineConfigs;
using ::bdc::testing::search_name;
using ::bdc::testing::sub_config;
using ::bdc::testing::worker_pool_guard;
using ::bdc::testing::workers_name;

struct scenario {
  level_search_kind engine;
  int n;
  int rounds;
  int insert_rate;  // percent of round budget that are insertions
  uint64_t seed;
};

/// Test-name suffix of an engine row: its worker count, then the
/// configuration ("w1_blocked", "whw_blocked_serve").
std::string row_name(const sub_config& cfg) {
  return "w" + workers_name(cfg.workers) +
         (cfg.serve ? "_blocked_serve" : "_blocked");
}

class PropertySweep
    : public ::testing::TestWithParam<std::tuple<scenario, sub_config>> {};

TEST_P(PropertySweep, OracleLockstep) {
  const scenario sc = std::get<0>(GetParam());
  const sub_config& cfg = std::get<1>(GetParam());
  worker_pool_guard pool(cfg.workers);
  const vertex_id n = static_cast<vertex_id>(sc.n);
  random_stream rs(sc.seed);
  options o;
  o.search = sc.engine;
  o = cfg.apply(o);
  batch_dynamic_connectivity dc(n, o);
  hdt_connectivity hdt(n);
  stream_oracle oracle(n);
  std::set<std::pair<vertex_id, vertex_id>> present;  // picks deletions

  for (int round = 0; round < sc.rounds; ++round) {
    // Insertion batch (with deliberate garbage: dups, self-loops).
    std::vector<edge> ins;
    int ni = 1 + static_cast<int>(rs.next(30));
    for (int t = 0; t < ni; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.push_back({u, v});
      if (rs.next(10) == 0) ins.push_back({v, u});
    }
    if (rs.next(100) < static_cast<uint64_t>(sc.insert_rate)) {
      dc.batch_insert(ins);
      hdt.batch_insert(ins);
      oracle.insert(ins);
      for (auto e : ins)
        if (!e.is_self_loop())
          present.insert({e.canonical().u, e.canonical().v});
      auto rep = dc.check_invariants();
      ASSERT_TRUE(rep.ok) << "insert r" << round << ": " << rep.message;
      expect_snapshot_matches(dc, "insert r" + std::to_string(round));
    }

    // Deletion batch.
    std::vector<edge> del;
    for (auto& pe : present)
      if (rs.next(100) < 30) del.push_back({pe.first, pe.second});
    del.push_back({static_cast<vertex_id>(rs.next(n)),
                   static_cast<vertex_id>(rs.next(n))});  // mostly absent
    dc.batch_delete(del);
    hdt.batch_delete(del);
    oracle.erase(del);
    for (auto& e : del) present.erase({e.canonical().u, e.canonical().v});
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << "delete r" << round << ": " << rep.message;
    expect_snapshot_matches(dc, "delete r" + std::to_string(round));
    ASSERT_TRUE(hdt.check_invariants().empty()) << "hdt r" << round;

    // Cross-validation: dc vs the oracle vs HDT.
    std::vector<std::pair<vertex_id, vertex_id>> qs;
    for (int q = 0; q < 80; ++q)
      qs.push_back({static_cast<vertex_id>(rs.next(n)),
                    static_cast<vertex_id>(rs.next(n))});
    auto got = dc.batch_connected(qs);
    auto got_hdt = hdt.batch_connected(qs);
    for (size_t q = 0; q < qs.size(); ++q) {
      bool expect = oracle.connected(qs[q].first, qs[q].second);
      ASSERT_EQ(got[q], expect) << "r" << round << " q" << q;
      ASSERT_EQ(got_hdt[q], expect) << "r" << round << " q" << q;
    }
    ASSERT_EQ(dc.num_edges(), oracle.num_edges());
    ASSERT_EQ(hdt.num_edges(), oracle.num_edges());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PropertySweep,
    ::testing::Combine(
        ::testing::Values(
            scenario{level_search_kind::interleaved, 60, 25, 80, 101},
            scenario{level_search_kind::interleaved, 200, 20, 70, 102},
            scenario{level_search_kind::interleaved, 500, 12, 60, 103},
            scenario{level_search_kind::simple, 60, 25, 80, 104},
            scenario{level_search_kind::simple, 200, 20, 70, 105},
            scenario{level_search_kind::simple, 500, 12, 60, 106},
            scenario{level_search_kind::scan_all, 60, 20, 80, 107},
            scenario{level_search_kind::scan_all, 200, 15, 70, 108},
            scenario{level_search_kind::interleaved, 17, 30, 75, 109},
            scenario{level_search_kind::simple, 17, 30, 75, 110},
            scenario{level_search_kind::scan_all, 500, 12, 60, 111},
            scenario{level_search_kind::scan_all, 17, 30, 75, 112}),
        ::testing::ValuesIn(kEngineConfigs)),
    [](const ::testing::TestParamInfo<std::tuple<scenario, sub_config>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param).seed) + "_" +
             row_name(std::get<1>(info.param));
    });

// Structured stress: repeatedly shatter a dense random graph with very
// large deletion batches (the regime Theorem 9 targets).
class ShatterSweep
    : public ::testing::TestWithParam<
          std::tuple<level_search_kind, sub_config>> {};

TEST_P(ShatterSweep, LargeBatchLifecycle) {
  options o;
  o.search = std::get<0>(GetParam());
  o = std::get<1>(GetParam()).apply(o);
  worker_pool_guard pool(std::get<1>(GetParam()).workers);
  const vertex_id n = 256;
  batch_dynamic_connectivity dc(n, o);
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto es = gen_erdos_renyi(n, 1200, 500 + cycle);
    dc.batch_insert(es);
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    expect_snapshot_matches(dc, "insert, cycle " + std::to_string(cycle));
    ASSERT_TRUE(dc.connected(0, n - 1));
    // Delete in two giant batches.
    size_t half = es.size() / 2;
    dc.batch_delete(std::span<const edge>(es.data(), half));
    rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    expect_snapshot_matches(dc, "first half, cycle " + std::to_string(cycle));
    dc.batch_delete(
        std::span<const edge>(es.data() + half, es.size() - half));
    rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    expect_snapshot_matches(dc, "second half, cycle " + std::to_string(cycle));
    ASSERT_EQ(dc.num_edges(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ShatterSweep,
    ::testing::Combine(::testing::Values(level_search_kind::interleaved,
                                         level_search_kind::simple,
                                         level_search_kind::scan_all),
                       ::testing::ValuesIn(kEngineConfigs)),
    [](const ::testing::TestParamInfo<
        std::tuple<level_search_kind, sub_config>>& info) {
      return "engine" +
             std::to_string(static_cast<int>(std::get<0>(info.param))) + "_" +
             row_name(std::get<1>(info.param));
    });

// Multi-piece splits. The level search keeps a component's largest
// piece passive (unsearched) when the other pieces together fit one level
// down (the k-piece rule; HDT's replace is its two-piece case). Without
// that size test it is unsound. Counterexample, active_cap 128: pieces
// of 100, 90 and 50 vertices. If the 90-piece finds the 50-piece first,
// their supercomponent (140) is large and stops searching, so its edge to
// an unsearched 100-piece is never found. Every batch here cuts 2-3 tree
// edges of one component of a grid or of a path with chords, so the
// component splits into three or more pieces, then the next batch puts
// the edges back. Churn sinks tree edges, so the cuts land at several
// levels. The stream oracle checks the labels after every batch.
struct split_shape {
  const char* name;
  vertex_id n;
  std::vector<edge> (*make)(vertex_id n);
};

const split_shape kSplitShapes[] = {
    {"grid", 256, [](vertex_id) { return gen_grid(16, 16); }},
    {"chorded_path", 300,
     [](vertex_id n) {
       std::vector<edge> es = gen_path(n);
       for (vertex_id i = 0; i + 4 < n; i += 3) es.push_back({i, i + 4});
       return es;
     }},
};

class MultiPieceSplit
    : public ::testing::TestWithParam<std::tuple<split_shape, sub_config>> {};

TEST_P(MultiPieceSplit, OracleAfterEveryBatch) {
  const split_shape& sh = std::get<0>(GetParam());
  const sub_config& cfg = std::get<1>(GetParam());
  worker_pool_guard pool(cfg.workers);
  const vertex_id n = sh.n;
  batch_dynamic_connectivity dc(n, cfg.apply({}));
  stream_oracle oracle(n);
  auto check = [&](const std::string& where) {
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << where << ": " << rep.message;
    expect_snapshot_matches(dc, where);
    ASSERT_EQ(dc.components(), oracle.labels()) << where;
  };

  std::vector<edge> graph = sh.make(n);
  dc.batch_insert(graph);
  oracle.insert(graph);
  check("build");

  random_stream rs(17);
  std::set<int> cut_levels;
  for (int round = 0; round < 120; ++round) {
    // A random tree edge, plus 1-2 more tree edges of its component.
    std::vector<std::pair<edge, int>> tree;
    for (const auto& [key, rec] : dc.levels().dict().entries())
      if (rec.is_tree) tree.push_back({edge_from_key(key), rec.level});
    ASSERT_FALSE(tree.empty());
    const edge first = tree[rs.next(tree.size())].first;
    std::vector<std::pair<edge, int>> same;
    for (const auto& t : tree)
      if (dc.connected(first.u, t.first.u)) same.push_back(t);
    const size_t want = std::min<size_t>(2 + rs.next(2), same.size());
    std::vector<edge> cuts;
    for (size_t t = 0; t < want; ++t) {
      const size_t pick = t + rs.next(same.size() - t);
      std::swap(same[t], same[pick]);
      cuts.push_back(same[t].first);
      cut_levels.insert(same[t].second);
    }
    dc.batch_delete(cuts);
    oracle.erase(cuts);
    check("cut r" + std::to_string(round));
    dc.batch_insert(cuts);
    oracle.insert(cuts);
    check("restore r" + std::to_string(round));
  }
  EXPECT_GE(cut_levels.size(), 3u) << "cuts never left the top levels";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiPieceSplit,
    ::testing::Combine(::testing::ValuesIn(kSplitShapes),
                       ::testing::ValuesIn(kEngineConfigs)),
    [](const ::testing::TestParamInfo<std::tuple<split_shape, sub_config>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             row_name(std::get<1>(info.param));
    });

// The k-piece rule on hand-built splits of one path, all of whose edges
// start at the top level. `cuts` splits it into three pieces; the test
// reads each path edge's level after the batch. A searching piece pushes
// its level-top tree edges down one level (line 5); a passive one keeps
// them. The rule decides which pieces search under every fetch schedule,
// so every schedule must leave the same levels.
class PieceRule : public ::testing::TestWithParam<
                      std::tuple<level_search_kind, sub_config>> {
 protected:
  /// Builds path 0..len-1 plus `chords` on n vertices, deletes `cuts`, and
  /// returns the level of every remaining path edge (index i: (i, i+1)).
  std::vector<int> path_levels_after(vertex_id n, vertex_id len,
                                     const std::vector<edge>& chords,
                                     const std::vector<edge>& cuts) {
    const sub_config& cfg = std::get<1>(GetParam());
    worker_pool_guard pool(cfg.workers);
    options o;
    o.search = std::get<0>(GetParam());
    batch_dynamic_connectivity dc(n, cfg.apply(o));
    stream_oracle oracle(n);
    const std::vector<edge> path = gen_path(len);
    for (const auto* batch : {&path, &chords}) {  // chords stay non-tree
      dc.batch_insert(*batch);
      oracle.insert(*batch);
    }
    top_ = dc.levels().top();
    dc.batch_delete(cuts);
    oracle.erase(cuts);
    auto rep = dc.check_invariants();
    EXPECT_TRUE(rep.ok) << rep.message;
    expect_snapshot_matches(dc, "after the cuts");
    EXPECT_EQ(dc.components(), oracle.labels());
    std::vector<int> levels(len - 1, -1);
    for (vertex_id i = 0; i + 1 < len; ++i)
      if (const edge_record* r = dc.levels().record_of({i, i + 1})) {
        EXPECT_TRUE(r->is_tree) << "path edge " << i;
        levels[i] = r->level;
      }
    return levels;
  }
  int top_ = 0;
};

// n = 64: top level 5, active_cap 32. Cuts leave pieces of 10, 10 and 30
// vertices; the rest hold 20 <= 32, so the 30-piece is passive and keeps
// its level-5 tree edges, which the paper's rule (30 <= 32) would push.
// The 10-pieces search: one finds the chord (5, 30) into the passive
// piece, the other nothing.
TEST_P(PieceRule, LargestPieceStaysPassiveWhenTheRestFit) {
  auto levels = path_levels_after(64, 50, {{5, 30}}, {{9, 10}, {19, 20}});
  ASSERT_EQ(top_, 5);
  for (vertex_id i = 0; i < 49; ++i) {
    if (i == 9 || i == 19) continue;  // cut
    EXPECT_EQ(levels[i], i >= 20 ? 5 : 4) << "path edge (" << i << ", "
                                          << i + 1 << ")";
  }
}

// n = 256: top level 7, active_cap 128. The 100/90/50 shape: the rest of
// the largest piece hold 140 > 128, so no piece is passive and all three
// search (their tree edges drop to level 6). Chords join the 90- and
// 50-pieces and the 100- and 50-pieces, so the labels only come out right
// if the 100-piece searched too.
TEST_P(PieceRule, EveryPieceSearchesWhenTheRestOverflow) {
  auto levels = path_levels_after(256, 240, {{150, 200}, {50, 220}},
                                  {{99, 100}, {189, 190}});
  ASSERT_EQ(top_, 7);
  for (vertex_id i = 0; i < 239; ++i) {
    if (i == 99 || i == 189) continue;  // cut
    EXPECT_EQ(levels[i], 6) << "path edge (" << i << ", " << i + 1 << ")";
  }
}

// The default schedule keeps the bare row name.
std::string piece_rule_name(
    const ::testing::TestParamInfo<PieceRule::ParamType>& info) {
  const auto& [search, cfg] = info.param;
  if (search == level_search_kind::interleaved) return row_name(cfg);
  return std::string(search_name(search)) + "_" + row_name(cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, PieceRule,
    ::testing::Combine(::testing::Values(level_search_kind::interleaved,
                                         level_search_kind::simple,
                                         level_search_kind::scan_all),
                       ::testing::ValuesIn(kEngineConfigs)),
    piece_rule_name);

// Seeded multi-piece sweep: a path plus grid edges plus random chords on
// 16-316 vertices; each round deletes 1-48 edges, most of them tree
// edges, so components split into many pieces of every size mix, and
// puts back as many. Invariants and the oracle's labels are checked
// after every batch. Marking the largest piece passive without the size
// test fails here on Invariant 2. The other fetch schedules run the
// 1-worker slice.
class PieceSweep
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, unsigned, level_search_kind>> {};

TEST_P(PieceSweep, OracleAfterEveryBatch) {
  const uint64_t seed = std::get<0>(GetParam());
  worker_pool_guard pool(std::get<1>(GetParam()));
  options o;
  o.search = std::get<2>(GetParam());
  random_stream rs(seed);
  const vertex_id n = 16 + static_cast<vertex_id>(rs.next(301));
  vertex_id side = 1;
  while ((side + 1) * (side + 1) <= n) ++side;
  std::vector<edge> graph = gen_path(n);
  for (const edge& e : gen_grid(side, side)) graph.push_back(e);
  for (vertex_id c = 0; c < n / 3; ++c)
    graph.push_back({static_cast<vertex_id>(rs.next(n)),
                     static_cast<vertex_id>(rs.next(n))});
  batch_dynamic_connectivity dc(n, o);
  stream_oracle oracle(n);
  auto check = [&](const std::string& where) {
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << where << ": " << rep.message;
    ASSERT_EQ(dc.components(), oracle.labels()) << where;
  };
  dc.batch_insert(graph);
  oracle.insert(graph);
  check("build");

  std::vector<edge> removed;
  for (int round = 0; round < 160; ++round) {
    std::vector<edge> tree, nontree;
    for (const auto& [key, rec] : dc.levels().dict().entries())
      (rec.is_tree ? tree : nontree).push_back(edge_from_key(key));
    std::vector<edge> del;
    const size_t k = 1 + rs.next(48);
    for (size_t t = 0; t < k && !(tree.empty() && nontree.empty()); ++t) {
      auto& from = (rs.next(4) != 0 && !tree.empty()) || nontree.empty()
                       ? tree
                       : nontree;
      const size_t pick = rs.next(from.size());
      del.push_back(from[pick]);
      from[pick] = from.back();
      from.pop_back();
    }
    dc.batch_delete(del);
    oracle.erase(del);
    check("delete r" + std::to_string(round));
    if (HasFatalFailure()) return;
    removed.insert(removed.end(), del.begin(), del.end());

    std::vector<edge> ins;
    const size_t back = std::min<size_t>(1 + rs.next(48), removed.size());
    for (size_t t = 0; t < back; ++t) {
      const size_t pick = rs.next(removed.size());
      ins.push_back(removed[pick]);
      removed[pick] = removed.back();
      removed.pop_back();
    }
    dc.batch_insert(ins);
    oracle.insert(ins);
    check("insert r" + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

// The default schedule keeps the bare seed name.
std::string piece_sweep_name(
    const ::testing::TestParamInfo<PieceSweep::ParamType>& info) {
  const auto& [seed, workers, search] = info.param;
  std::string name =
      "seed" + std::to_string(seed) + "_w" + std::to_string(workers);
  if (search == level_search_kind::interleaved) return name;
  return std::string(search_name(search)) + "_" + name;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PieceSweep,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(level_search_kind::interleaved)),
    piece_sweep_name);

INSTANTIATE_TEST_SUITE_P(
    Schedules, PieceSweep,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::Values(1u),
                       ::testing::Values(level_search_kind::simple,
                                         level_search_kind::scan_all)),
    piece_sweep_name);

// Bulk load: one batch_insert of an ER(2^13, 2^15) graph with duplicates,
// reversed edges and self-loops mixed in, into a fresh structure (the
// router's promotion shape). The batch takes the > 2048 paths of the
// contraction's relabel, of partition_links (at more than one worker)
// and of the adjacency grouping. Then a random quarter of the edges is
// deleted in one batch.
class BulkInsert : public ::testing::TestWithParam<unsigned> {};

TEST_P(BulkInsert, OneBatchMatchesOracle) {
  worker_pool_guard pool(GetParam());
  const vertex_id n = vertex_id{1} << 13;
  const std::vector<edge> graph = gen_erdos_renyi(n, size_t{1} << 15, 26);
  random_stream rs(26);
  std::vector<edge> batch;
  for (const edge& e : graph) {
    batch.push_back(e);
    if (rs.next(8) == 0) batch.push_back(e);  // duplicate
    if (rs.next(8) == 0) batch.push_back({e.v, e.u});  // reversed
    if (rs.next(64) == 0) batch.push_back({e.u, e.u});  // self-loop
  }
  for (size_t i = batch.size(); i > 1; --i)
    std::swap(batch[i - 1], batch[rs.next(i)]);

  batch_dynamic_connectivity dc(n);
  stream_oracle oracle(n);
  auto check = [&](const char* where) {
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << where << ": " << rep.message;
    ASSERT_EQ(dc.num_edges(), oracle.num_edges()) << where;
    ASSERT_EQ(dc.components(), oracle.labels()) << where;
  };
  dc.batch_insert(batch);
  oracle.insert(batch);
  check("bulk insert");
  if (HasFatalFailure()) return;

  std::vector<edge> del;
  for (const edge& e : graph)
    if (rs.next(4) == 0) del.push_back(e);
  dc.batch_delete(del);
  oracle.erase(del);
  check("quarter delete");
}

INSTANTIATE_TEST_SUITE_P(
    Workers, BulkInsert, ::testing::ValuesIn(testing::kWorkerGrid),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      return "w" + workers_name(info.param);
    });

}  // namespace
}  // namespace bdc
