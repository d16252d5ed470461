// Incremental snapshot publishing: the read service's publish_snapshot()
// rewrites only the vertices whose label changes, sharing untouched
// chunks of the copy-on-write label/size table between versions. These
// suites pin down the contract from the outside:
//
//   * Differential: after EVERY committed batch, the published snapshot's
//     labels must equal a from-scratch components() walk — on every
//     worker row and level search, with and without a giant component.
//     This is the direct
//     check that the publish delta (the merges an insert batch records
//     before its link, the pieces a delete batch cuts) reaches every
//     component whose membership changed.
//   * Cost: the GiantPublish suite counts the rewrites of single batches
//     against a giant component (only guests, or only split-off pieces,
//     relabel).
//   * Sizes are maintained incrementally (no O(n) counting pass); they
//     are asserted independently against a recount of the scratch walk.
//   * Chunk-boundary writes, pinned-view freezing under chunk cloning,
//     and the automatic full-walk fallback for shatter-everything batches
//     each get a dedicated case.
//
// substrate_fuzz_test's BdcDifferential repeats the per-batch label check
// inside the randomized oracle sweep; this suite is the deterministic,
// always-on half.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::search_name;
using ::bdc::testing::sub_config;
using ::bdc::testing::worker_pool_guard;

/// Asserts the published snapshot agrees with a from-scratch walk:
/// labels, per-vertex component sizes (recounted independently), and the
/// committed version.
void expect_snapshot_fresh(batch_dynamic_connectivity& dc,
                           uint64_t expected_version,
                           const std::string& what) {
  auto view = dc.snapshot_query();
  EXPECT_EQ(view.version(), expected_version) << what;
  std::vector<vertex_id> snap = view.components();
  std::vector<vertex_id> scratch = dc.components();
  ASSERT_EQ(snap, scratch) << what;
  std::unordered_map<vertex_id, uint32_t> counts;
  for (vertex_id l : scratch) counts[l]++;
  for (vertex_id v = 0; v < static_cast<vertex_id>(scratch.size()); ++v) {
    ASSERT_EQ(view.component_size(v), counts[scratch[v]])
        << what << " size of vertex " << v;
  }
}

// The fetch schedules find replacements in different rounds and orders,
// so a delete batch's relinks, and the publish delta they leave, differ
// per schedule. The default search (interleaved) keeps the bare config
// name.
std::string publish_name(const sub_config& sc, level_search_kind search) {
  std::string name = sc.name;
  if (search != level_search_kind::interleaved)
    name += std::string("_") + search_name(search);
  return name;
}

const auto kSearches =
    ::testing::Values(level_search_kind::interleaved,
                      level_search_kind::simple, level_search_kind::scan_all);

class SnapshotPublish
    : public ::testing::TestWithParam<
          std::tuple<sub_config, level_search_kind, bool>> {};

// The core differential: a randomized insert/delete stream; after every
// batch the published snapshot must match a from-scratch components()
// walk, labels and sizes both. The giant rows insert a spanning path
// first, so every later batch links to or cuts from one component
// holding the whole graph, and its path edges join the pool the deletes
// draw from.
TEST_P(SnapshotPublish, MatchesFromScratchAfterEveryBatch) {
  const auto& [sc, search, giant] = GetParam();
  worker_pool_guard workers(sc.workers);
  const vertex_id n = 600;
  options o = sc.apply({});
  o.search = search;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  expect_snapshot_fresh(dc, 0, "construction");

  random_stream rng(hash_combine(0x5eed, std::hash<std::string>{}(sc.name)));
  std::vector<edge> pool;  // edges currently present
  uint64_t version = 0;
  if (giant) {
    for (vertex_id v = 0; v + 1 < n; ++v) pool.push_back({v, v + 1});
    dc.batch_insert(pool);
    expect_snapshot_fresh(dc, ++version, "spanning path");
  }
  for (int round = 0; round < 30; ++round) {
    if (round % 3 != 2) {
      std::vector<edge> batch;
      for (int i = 0; i < 40; ++i) {
        vertex_id u = static_cast<vertex_id>(rng.next(n));
        vertex_id v = static_cast<vertex_id>(rng.next(n));
        if (u != v) batch.push_back(edge{u, v}.canonical());
      }
      dc.batch_insert(batch);
      for (const edge& e : batch)
        if (dc.has_edge(e)) pool.push_back(e);
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    } else {
      std::vector<edge> batch;
      for (int i = 0; i < 30 && !pool.empty(); ++i) {
        size_t j = rng.next(pool.size());
        batch.push_back(pool[j]);
        pool[j] = pool.back();
        pool.pop_back();
      }
      dc.batch_delete(batch);
    }
    ++version;
    expect_snapshot_fresh(dc, version,
                          std::string(sc.name) + " round " +
                              std::to_string(round));
  }
  auto rep = dc.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SnapshotPublish,
    ::testing::Combine(::testing::ValuesIn(kSubConfigs), kSearches,
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SnapshotPublish::ParamType>& info) {
      return publish_name(std::get<0>(info.param), std::get<1>(info.param)) +
             "_incremental" + (std::get<2>(info.param) ? "_giant" : "");
    });

// Writes that straddle label-table chunk boundaries (4096 entries per
// chunk): components spanning two chunks must relabel on both sides, and
// the untouched tail chunk keeps its identity.
TEST(SnapshotPublishEdge, ChunkBoundaryWrites) {
  const vertex_id n = 2 * 4096 + 100;  // three chunks, last one partial
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);

  // A path crossing the first chunk boundary: 4000 .. 4200.
  std::vector<edge> path;
  for (vertex_id v = 4000; v < 4200; ++v) path.push_back({v, v + 1});
  dc.batch_insert(path);
  expect_snapshot_fresh(dc, 1, "path across chunk 0/1 boundary");

  // Cut exactly at the boundary edge (4095, 4096): the two halves land in
  // different chunks.
  dc.batch_delete({{edge{4095, 4096}}});
  expect_snapshot_fresh(dc, 2, "cut at the chunk boundary");

  // A component wholly inside the last (partial) chunk.
  std::vector<edge> tail;
  for (vertex_id v = n - 50; v + 1 < n; ++v) tail.push_back({v, v + 1});
  dc.batch_insert(tail);
  expect_snapshot_fresh(dc, 3, "tail-chunk component");
}

// Pinned views must stay frozen while later batches clone chunks out
// from under them — the copy-on-write sharing is exactly what makes this
// free, and a clone that mutated a shared chunk would show up here.
TEST(SnapshotPublishEdge, PinnedViewsFrozenAcrossVersions) {
  const vertex_id n = 512;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);

  struct pinned {
    batch_dynamic_connectivity::snapshot_view view;
    std::vector<vertex_id> labels;
    uint64_t version;
  };
  std::vector<pinned> pins;
  auto pin = [&] {
    auto view = dc.snapshot_query();
    auto labels = view.components();
    uint64_t version = view.version();
    pins.push_back({std::move(view), std::move(labels), version});
  };

  std::vector<edge> chain;
  for (vertex_id v = 0; v + 1 < n; ++v) chain.push_back({v, v + 1});
  pin();
  dc.batch_insert(chain);
  pin();
  // Churn the same vertex range repeatedly: every batch rewrites labels
  // inside the chunk the pinned views still reference.
  for (int i = 0; i < 6; ++i) {
    dc.batch_delete({{chain[static_cast<size_t>(i) * 40]}});
    pin();
  }
  for (const auto& p : pins) {
    EXPECT_EQ(p.view.version(), p.version);
    EXPECT_EQ(p.view.components(), p.labels)
        << "pinned version " << p.version << " moved";
  }
}

// The incremental path must hand large-touch batches to the full walk
// (vertices to walk > n/4) and keep small-component churn incremental.
// The graph here is a sea of 16-vertex path clusters; the GiantPublish
// suite covers the batches that touch one giant component.
TEST(SnapshotPublishEdge, ShatterFallsBackToFullWalk) {
  const vertex_id n = 1024;
  constexpr vertex_id kCluster = 16;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  EXPECT_EQ(dc.stats().publishes_full, 1u);  // construction (forced)

  // Build every cluster in one batch: all but one vertex per cluster
  // change label -> full.
  std::vector<edge> sea;
  for (vertex_id v = 0; v + 1 < n; ++v)
    if ((v + 1) % kCluster != 0) sea.push_back({v, v + 1});
  dc.batch_insert(sea);
  EXPECT_EQ(dc.stats().publishes_full, 2u);

  // Nick two edges inside ONE cluster {96..111}: incremental, and only
  // the pieces that lose label 96 relabel, {101} and {102..111}; the
  // piece {96..100} still holds vertex 96 and keeps its label unwalked.
  const uint64_t relabeled_before = dc.stats().publish_relabeled;
  dc.batch_delete({{edge{100, 101}, edge{101, 102}}});
  EXPECT_EQ(dc.stats().publishes_full, 2u);
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled_before + 11);
  expect_snapshot_fresh(dc, 2, "incremental nick");

  // Shatter: delete every remaining edge in one batch -> every cluster
  // touched -> fallback.
  std::vector<edge> rest;
  for (const edge& e : sea)
    if (dc.has_edge(e)) rest.push_back(e);
  dc.batch_delete(rest);
  EXPECT_EQ(dc.stats().publishes_full, 3u);
  expect_snapshot_fresh(dc, 3, "shatter");
}

// A publish rewrites only the vertices whose label changes. The giant
// suites build one large path plus a few small clusters and count the
// rewrites of each batch that links to or cuts from the path, on every
// worker row and level search; none of them may fall back to the full
// walk.
class GiantPublish : public ::testing::TestWithParam<
                         std::tuple<sub_config, level_search_kind>> {
 protected:
  static constexpr vertex_id kN = 4096;

  void SetUp() override {
    options o = std::get<0>(GetParam()).apply({});
    o.search = std::get<1>(GetParam());
    o.concurrent_reads = true;
    dc_ = std::make_unique<batch_dynamic_connectivity>(kN, o);
  }

  worker_pool_guard pool_{std::get<0>(GetParam()).workers};

  /// Inserts a path over [first, last].
  void path(vertex_id first, vertex_id last) {
    std::vector<edge> es;
    for (vertex_id v = first; v < last; ++v) es.push_back({v, v + 1});
    dc_->batch_insert(es);
    expect_snapshot_fresh(*dc_, dc_->committed_version(), "path");
  }

  /// Applies one batch and checks it rewrote exactly `relabeled` labels
  /// without a full walk.
  void expect_batch(bool insert, std::vector<edge> es, uint64_t relabeled,
                    const std::string& what) {
    const uint64_t fulls = dc_->stats().publishes_full;
    const uint64_t before = dc_->stats().publish_relabeled;
    if (insert)
      dc_->batch_insert(es);
    else
      dc_->batch_delete(es);
    EXPECT_EQ(dc_->stats().publishes_full, fulls) << what;
    EXPECT_EQ(dc_->stats().publish_relabeled - before, relabeled) << what;
    expect_snapshot_fresh(*dc_, dc_->committed_version(), what);
  }

  std::unique_ptr<batch_dynamic_connectivity> dc_;
};

// Linking two clusters and a singleton to the giant relabels only them:
// the giant (the host, label 0) keeps its tour unwalked. The cycle-
// closing edge in the same batch relabels nothing.
TEST_P(GiantPublish, GiantInsertRelabelsOnlyGuests) {
  path(0, 999);      // the giant, label 0
  path(2000, 2009);  // 10 vertices, label 2000
  path(3000, 3004);  // 5 vertices, label 3000
  expect_batch(true,
               {edge{10, 2005}, edge{20, 3002}, edge{30, 4000},
                edge{40, 500}},
               10 + 5 + 1, "guests join the giant");
  EXPECT_EQ(dc_->snapshot_query().component_size(3004), 1000u + 15 + 1);
}

// When a smaller member holds the group minimum, the giant takes it: the
// giant's 800 vertices relabel, the 5 that already hold label 0 do not.
TEST_P(GiantPublish, GuestHoldingMinimumRelabelsHost) {
  path(100, 899);  // the giant, label 100
  path(0, 4);      // 5 vertices, label 0
  expect_batch(true, {edge{4, 500}}, 800, "label 0 joins the giant");
  // Merging a second guest under label 0 moves only that guest.
  path(1000, 1009);
  expect_batch(true, {edge{1000, 300}}, 10, "second guest");
}

// Cutting pieces off the giant relabels only those pieces; the giant
// holds vertex 0 and keeps label 0 unwalked.
TEST_P(GiantPublish, GiantSplitRelabelsOnlyThePiece) {
  path(0, 999);
  expect_batch(false, {edge{987, 988}}, 12, "cut off {988..999}");
  expect_batch(false, {edge{99, 100}, edge{199, 200}}, 100 + 788,
               "cut off {100..199} and {200..987}");
  // A cut with a replacement changes no membership: nothing relabels.
  dc_->batch_insert({{edge{0, 50}}});
  expect_batch(false, {edge{10, 11}}, 0, "cut replaced by (0, 50)");
}

// When the cut-off piece holds the old minimum, that piece keeps the
// label and the giant is the side that relabels.
TEST_P(GiantPublish, SplitWhereLabelLeavesTheGiant) {
  path(0, 999);
  expect_batch(false, {edge{4, 5}}, 995, "cut off {0..4}");
  EXPECT_EQ(dc_->snapshot_query().component_size(0), 5u);
  EXPECT_EQ(dc_->snapshot_query().component_size(999), 995u);
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, GiantPublish,
    ::testing::Combine(::testing::ValuesIn(kSubConfigs), kSearches),
    [](const ::testing::TestParamInfo<GiantPublish::ParamType>& info) {
      return publish_name(std::get<0>(info.param), std::get<1>(info.param));
    });

// An update batch that commits nothing still publishes a fresh version —
// but relabels nothing and clones nothing (all chunk pointers shared).
TEST(SnapshotPublishEdge, NoopBatchPublishesCheaply) {
  const vertex_id n = 256;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  dc.batch_insert({{edge{1, 2}, edge{2, 3}}});

  const uint64_t relabeled = dc.stats().publish_relabeled;
  const uint64_t fulls = dc.stats().publishes_full;
  dc.batch_insert({{edge{1, 2}}});  // duplicate: no top-forest mutation
  dc.batch_delete({{edge{7, 8}}});  // absent: no mutation at all
  EXPECT_EQ(dc.committed_version(), 3u);
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  EXPECT_EQ(dc.stats().publishes_full, fulls);
  expect_snapshot_fresh(dc, 3, "noop commits");
}

// Non-tree churn must not relabel: inserting an edge inside an existing
// component mutates no top-forest tour, so the incremental publish
// shares every chunk untouched.
TEST(SnapshotPublishEdge, NontreeInsertRelabelsNothing) {
  const vertex_id n = 128;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  dc.batch_insert({{edge{0, 1}, edge{1, 2}, edge{2, 3}}});

  const uint64_t relabeled = dc.stats().publish_relabeled;
  dc.batch_insert({{edge{0, 3}}});  // closes a cycle: non-tree
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  expect_snapshot_fresh(dc, 2, "cycle-closing insert");

  // Deleting the non-tree edge is equally free.
  dc.batch_delete({{edge{0, 3}}});
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  expect_snapshot_fresh(dc, 3, "non-tree delete");
}

TEST(SnapshotPublishEdge, TinyAndEmptyStructures) {
  for (vertex_id n : {vertex_id{0}, vertex_id{1}, vertex_id{2}}) {
    options o;
    o.concurrent_reads = true;
    batch_dynamic_connectivity dc(n, o);
    auto view = dc.snapshot_query();
    EXPECT_FALSE(view.connected_pinned(0, 1));
    EXPECT_EQ(view.component_size(5), 0u);
    dc.batch_insert({{edge{0, 1}}});  // dropped unless n >= 2
    expect_snapshot_fresh(dc, 1, "tiny n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace bdc
