// Concurrent query serving, differential-checked (the TSan-targeted
// suite).
//
// Reader threads hammer batch_dynamic_connectivity's snapshot_query()
// views WHILE batch_insert/batch_delete run, across worker-pool sizes (1
// and 2 workers plus the hardware default), through the shared reader pool
// of gen/replay_oracle.hpp. Each reader reuses a view for several reads,
// mixing the freshest-committed surface (connected) with the frozen one
// (connected_pinned / component_size). Every sampled answer must match
// the stream oracle of the exact committed batch count it claims, and a
// freshest-committed answer may never claim an older count than
// committed_version() read just before the call.
//
// Iteration counts widen via BDC_CONC_ROUNDS / BDC_CONC_READERS (the TSan
// CI job raises them); defaults keep the suite quick for local runs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_connectivity.hpp"
#include "gen/replay_oracle.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {
namespace {

size_t env_size(const char* name, size_t fallback) {
  if (const char* v = std::getenv(name)) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(v, &end, 10);
    if (end != v && *end == '\0' && parsed > 0) return parsed;
  }
  return fallback;
}

size_t conc_rounds() { return env_size("BDC_CONC_ROUNDS", 30); }
size_t conc_readers() { return env_size("BDC_CONC_READERS", 4); }

// ---------------------------------------------------------------------
// snapshot_query() across update batches
// ---------------------------------------------------------------------

/// The serving structure under test and the update log it applied
/// (version k is the graph after the log's first k batches); `now` is the
/// oracle of the latest version.
struct served_graph {
  explicit served_graph(vertex_id n) : s(n, serving()), now(n) {}
  static options serving() {
    options o;
    o.concurrent_reads = true;
    return o;
  }
  void insert(std::span<const edge> batch) {
    s.batch_insert(batch);
    commit({update_batch::kind::insert, {batch.begin(), batch.end()}, {}});
  }
  void erase(std::span<const edge> batch) {
    s.batch_delete(batch);
    commit({update_batch::kind::erase, {batch.begin(), batch.end()}, {}});
  }
  void commit(update_batch b) {
    now.apply(b);
    log.push_back(std::move(b));
    ASSERT_EQ(s.committed_version(), now.version());
  }
  /// Joins the readers and holds every sampled read to the oracle of the
  /// version it claims.
  void verify(served_reads& readers, const char* what) {
    const read_check c = check_reads(readers.finish(), log, s.num_vertices());
    for (const std::string& m : c.messages) ADD_FAILURE() << what << ": " << m;
    EXPECT_TRUE(c.ok()) << what << ": " << c.mismatches << " of "
                        << c.checked << " sampled reads disagreed with their "
                        << "oracle, " << c.stale << " stale";
  }

  batch_dynamic_connectivity s;
  stream_oracle now;
  update_stream log;
};

class ConcurrentServe : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConcurrentServe, ViewsAgreeWithTheirCommittedOracle) {
  testing::worker_pool_guard pool(GetParam());
  const vertex_id n = 256;
  served_graph g(n);
  ASSERT_TRUE(g.s.serving());
  ASSERT_NE(g.s.read_epochs(), nullptr);
  EXPECT_EQ(g.s.committed_version(), 0u);
  served_reads readers(g.s, conc_readers(), 0xfeed);

  random_stream rng(0xd1ce);
  for (size_t r = 0; r < conc_rounds(); ++r) {
    std::vector<edge> batch;
    if (rng.next(3) != 0) {  // 2:1 insert:delete mix
      for (int i = 0; i < 48; ++i) {
        auto u = static_cast<vertex_id>(rng.next(n));
        auto v = static_cast<vertex_id>(rng.next(n));
        batch.push_back({u, v});  // self-loops/dupes exercise sanitize
      }
      g.insert(batch);
    } else {
      for (uint64_t key : g.now.edges())
        if (rng.next(2) == 0) batch.push_back(edge_from_key(key));
      g.erase(batch);
    }
  }
  g.verify(readers, "snapshot_query");
  auto rep = g.s.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
}

// Every round links a path through a FRESH id region (new directory
// chunks in the forests, fresh label chunks in the snapshots) and deletes
// the path two regions back, emptying chunks and freeing tour blocks that
// the pool hands straight to the next batch. Readers pick ids across the
// WHOLE id space the entire time, so most reads hit singletons.
TEST_P(ConcurrentServe, ReadsStayValidAcrossDirectoryGrowth) {
  testing::worker_pool_guard pool(GetParam());
  const size_t rounds = conc_rounds();
  // A region spans several 32-slot chunks of blocked_ett's directory.
  constexpr vertex_id kRegion = 96;
  served_graph g(static_cast<vertex_id>((rounds + 1) * kRegion));
  served_reads readers(g.s, conc_readers(), 0x96e4);

  for (size_t r = 0; r < rounds; ++r) {
    std::vector<edge> links;
    const auto base = static_cast<vertex_id>(r * kRegion);
    for (vertex_id i = 0; i + 1 < kRegion; ++i)
      links.push_back({base + i, base + i + 1});
    g.insert(links);
    if (r >= 2) {
      std::vector<edge> cuts;
      const auto old = static_cast<vertex_id>((r - 2) * kRegion);
      for (vertex_id i = 0; i + 1 < kRegion; ++i)
        cuts.push_back({old + i, old + i + 1});
      g.erase(cuts);
    }
  }
  g.verify(readers, "directory growth");
  auto rep = g.s.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
  // Only the two newest regions are still linked; everything older was
  // deactivated and its chunks freed.
  const level_structure& ls = g.s.levels();
  EXPECT_LE(ls.forest_if(ls.top())->active_vertices(), 2u * kRegion);
}

// One path grows a link per batch from 2 to kLength vertices and is cut
// back down, round after round, so its top-forest tour keeps moving into a
// block of the next size class (and, past one block, into full blocks)
// and back down, freeing the old block on every move.
TEST_P(ConcurrentServe, ReadsStayValidWhileTourChangesSizeClass) {
  testing::worker_pool_guard pool(GetParam());
  const size_t rounds = std::max<size_t>(1, conc_rounds() / 10);
  constexpr vertex_id kLength = 24;  // 70 entries: past one full block
  served_graph g(kLength + 8);       // a few ids that stay singletons
  served_reads readers(g.s, conc_readers(), 0x51e);

  for (size_t r = 0; r < rounds; ++r) {
    for (vertex_id k = 1; k < kLength; ++k) {
      const edge e{k - 1, k};
      g.insert({&e, 1});
    }
    for (vertex_id k = kLength - 1; k >= 1; --k) {
      const edge e{k - 1, k};
      g.erase({&e, 1});
    }
  }
  g.verify(readers, "size classes");
  auto rep = g.s.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
  EXPECT_EQ(g.s.levels().footprint().active_vertices, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConcurrentServe, ::testing::Values(1u, 2u, 0u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      return "blocked_" + testing::workers_name(info.param);
    });

// ---------------------------------------------------------------------
// Pinned views stay frozen; fresh reads follow every commit
// ---------------------------------------------------------------------

TEST(SnapshotView, PinnedViewIsStableAcrossLaterBatches) {
  const vertex_id n = 64;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  std::vector<edge> chain;
  for (vertex_id v = 0; v + 1 < n / 2; ++v) chain.push_back({v, v + 1});
  s.batch_insert(chain);

  auto view = s.snapshot_query();
  const uint64_t pinned_version = view.version();
  EXPECT_EQ(pinned_version, 1u);
  std::vector<vertex_id> labels_before = view.components();
  EXPECT_TRUE(view.connected_pinned(0, n / 2 - 1));
  EXPECT_FALSE(view.connected_pinned(0, n - 1));
  EXPECT_EQ(view.component_size(0), n / 2);

  // Mutate heavily: cut the chain apart and build a different graph.
  s.batch_delete(chain);
  std::vector<edge> star;
  for (vertex_id v = 1; v < n; ++v) star.push_back({0, v});
  s.batch_insert(star);

  // The frozen surface answers exactly as before...
  EXPECT_EQ(view.version(), pinned_version);
  EXPECT_TRUE(view.connected_pinned(0, n / 2 - 1));
  EXPECT_FALSE(view.connected_pinned(0, n - 1));
  EXPECT_EQ(view.component_size(0), n / 2);
  EXPECT_EQ(labels_before, view.components());
  // ...while the freshest-committed surface has moved on.
  uint64_t state = 0;
  EXPECT_TRUE(view.connected(0, n - 1, &state));
  EXPECT_EQ(state, 3u);
  EXPECT_EQ(s.committed_version(), 3u);
}

// TSan-targeted (ISSUE 7): reader threads pin views and repeatedly
// re-materialize components() WHILE the writer churns batches. Each
// publish clones the label-table chunks the batch touched out from under
// the pinned views; a clone that mutated a still-shared chunk — or any
// unsynchronized access in the copy-on-write path — shows up either as a
// label mismatch here or as a TSan race in the CI sanitizer job.
TEST(SnapshotView, PinnedViewsStayFrozenUnderConcurrentChurn) {
  const vertex_id n = 512;
  const size_t rounds = conc_rounds();
  const size_t readers = conc_readers();
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(readers);
  for (size_t t = 0; t < readers; ++t) {
    pool_threads.emplace_back([&, t] {
      random_stream rng(hash_combine(0x9137, t));
      while (!stop.load(std::memory_order_acquire)) {
        auto view = s.snapshot_query();
        const uint64_t version = view.version();
        const std::vector<vertex_id> pinned = view.components();
        // Hold the pin across several writer commits and re-read: the
        // frozen surface must reproduce the exact same labels.
        for (int probe = 0; probe < 4; ++probe) {
          auto v = static_cast<vertex_id>(rng.next(n));
          if (view.components() != pinned ||
              view.version() != version ||
              view.connected_pinned(v, v) != (v < n)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          verified.fetch_add(1, std::memory_order_release);
          std::this_thread::yield();
        }
      }
    });
  }

  // Writer: churn edges concentrated in a narrow vertex range so every
  // publish rewrites labels inside chunks the pinned views reference.
  random_stream rng(0xc10e);
  std::vector<edge> present;
  for (size_t r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      std::vector<edge> batch;
      for (int i = 0; i < 32; ++i) {
        auto u = static_cast<vertex_id>(rng.next(n));
        auto v = static_cast<vertex_id>(rng.next(n));
        batch.push_back({u, v});
      }
      s.batch_insert(batch);
      for (const edge& raw : batch) {
        edge c = raw.canonical();
        if (!c.is_self_loop() && c.v < n && s.has_edge(c))
          present.push_back(c);
      }
    } else {
      std::vector<edge> batch;
      for (int i = 0; i < 24 && !present.empty(); ++i) {
        size_t j = rng.next(present.size());
        batch.push_back(present[j]);
        present[j] = present.back();
        present.pop_back();
      }
      s.batch_delete(batch);
    }
  }
  while (verified.load(std::memory_order_acquire) < readers)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& th : pool_threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "a pinned snapshot view changed under concurrent publishes";
  EXPECT_GT(verified.load(), 0u);
  auto rep = s.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
}

// One view reused across many commits: the frozen surface stays at the
// pinned version while connected() follows each commit, out-of-range ids
// included (they answer false at the latest version).
TEST(SnapshotView, FreshReadsFollowEveryCommitUnderOnePin) {
  const vertex_id n = 32;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  auto view = s.snapshot_query();
  uint64_t state = ~uint64_t{0};
  EXPECT_FALSE(view.connected(0, n, &state));
  EXPECT_EQ(state, 0u);
  for (vertex_id v = 1; v < n; ++v) {
    s.insert({v - 1, v});
    EXPECT_TRUE(view.connected(0, v, &state));
    EXPECT_EQ(state, s.committed_version());
    EXPECT_FALSE(view.connected(v, n + v, &state));
    EXPECT_EQ(state, s.committed_version());
    EXPECT_FALSE(view.connected_pinned(0, v));
  }
  EXPECT_EQ(view.version(), 0u);
  EXPECT_EQ(view.component_size(0), 1u);
}

// Forest memory is no longer tied to readers: with a view pinned across a
// delete and a re-insert, the blocks and tours the delete frees in the top
// forest are recycled by the insert at once.
TEST(SnapshotView, PinnedViewDoesNotHoldBackForestMemory) {
  // One worker: every free lands on the freelist the next batch
  // allocates from.
  testing::worker_pool_guard pool(1);
  const vertex_id n = 128;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  std::vector<edge> chain;
  for (vertex_id v = 0; v + 1 < n; ++v) chain.push_back({v, v + 1});
  s.batch_insert(chain);

  const blocked_ett& top = *s.levels().forest_if(s.levels().top());
  auto view = s.snapshot_query();
  s.batch_delete(chain);
  const auto after_delete = top.pool_stats();
  EXPECT_GT(after_delete.freed, 0u);
  s.batch_insert(chain);
  EXPECT_GT(top.pool_stats().recycled, after_delete.recycled);
  EXPECT_TRUE(view.connected_pinned(0, n - 1));  // frozen answer
  uint64_t state = 0;
  EXPECT_TRUE(view.connected(0, n - 1, &state));
  EXPECT_EQ(state, 3u);
}

TEST(SnapshotView, ServingDisabledByDefault) {
  batch_dynamic_connectivity s(16);
  EXPECT_FALSE(s.serving());
  EXPECT_EQ(s.read_epochs(), nullptr);
  EXPECT_EQ(config_label({}), "blocked");
  options o;
  o.concurrent_reads = true;
  EXPECT_EQ(config_label(o), "blocked+serve");
}

}  // namespace
}  // namespace bdc
