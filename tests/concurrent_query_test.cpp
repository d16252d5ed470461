// Concurrent query serving, differential-checked (the TSan-targeted
// suite; ISSUE 6).
//
// Two layers are hammered with reader threads WHILE update batches run:
//
//   * blocked_ett directly — a test-owned seqlock version brackets each
//     batch_link/batch_cut exactly the way batch_dynamic_connectivity's
//     update_scope does, and readers probe connected_relaxed() and keep
//     only version-validated answers. Every kept answer must match the
//     union-find oracle of the exact committed batch count it claims.
//   * batch_dynamic_connectivity with options::concurrent_reads — readers
//     use the public snapshot_query() view (live + pinned paths) across
//     batch_insert/batch_delete, same oracle-agreement check (the live
//     seqlock probe, and the snapshot path it falls back to when a batch
//     overlaps it), across worker-pool sizes (1 and 2 workers plus the
//     hardware default).
//
// Iteration counts widen via BDC_CONC_ROUNDS / BDC_CONC_READERS (the TSan
// CI job raises them); defaults keep the suite quick for local runs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_connectivity.hpp"
#include "ett/blocked_ett.hpp"
#include "spanning/union_find.hpp"
#include "test_workers.hpp"
#include "util/epoch.hpp"
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

/// Min-vertex component labels of an edge-key set (the oracle).
std::vector<vertex_id> oracle_labels(
    vertex_id n, const std::unordered_set<uint64_t>& edges) {
  union_find uf(n);
  for (uint64_t key : edges) {
    edge e = edge_from_key(key);
    uf.unite(e.u, e.v);
  }
  std::vector<vertex_id> mins(n, kNoVertex);
  std::vector<vertex_id> labels(n);
  for (vertex_id v = 0; v < n; ++v) {
    uint32_t r = uf.find(v);
    if (mins[r] == kNoVertex) mins[r] = v;
  }
  for (vertex_id v = 0; v < n; ++v) labels[v] = mins[uf.find(v)];
  return labels;
}

struct served_record {
  vertex_id u, v;
  uint64_t state;
  bool ans;
};

void verify_records(const std::vector<std::vector<served_record>>& recs,
                    const std::vector<std::vector<vertex_id>>& states,
                    const char* what) {
  size_t checked = 0, bad = 0;
  for (const auto& buf : recs) {
    for (const served_record& r : buf) {
      ++checked;
      ASSERT_LT(r.state, states.size()) << what << ": state out of range";
      const auto& labels = states[r.state];
      bool expect = labels[r.u] == labels[r.v];
      if (expect != r.ans && bad++ < 5) {
        ADD_FAILURE() << what << ": (" << r.u << "," << r.v << ") at state "
                      << r.state << " answered " << r.ans << ", oracle says "
                      << expect;
      }
    }
  }
  EXPECT_EQ(bad, 0u) << what << ": " << bad << " of " << checked
                     << " concurrent answers disagreed with their oracle";
  EXPECT_GT(checked, 0u) << what << ": readers never ran";
}

// ---------------------------------------------------------------------
// Forest level: blocked_ett's connected_relaxed under a seqlock
// ---------------------------------------------------------------------

// The seqlock the serving layer maintains, reproduced so the raw
// forest can be driven without batch_dynamic_connectivity on top:
// reader threads probe connected_relaxed() over ids [0, n) and keep only
// answers no batch overlapped; write() brackets one batch exactly like
// update_scope (odd version during the batch, epoch advance + limbo
// drain after).
class seqlocked_readers {
 public:
  seqlocked_readers(blocked_ett& ett, epoch_manager& em, vertex_id n,
                    size_t readers, uint64_t seed)
      : ett_(ett), em_(em), recs_(readers) {
    threads_.reserve(readers);
    for (size_t t = 0; t < readers; ++t) {
      threads_.emplace_back([this, n, t, seed] {
        random_stream rng(hash_combine(seed, t));
        auto& buf = recs_[t];
        while (!stop_.load(std::memory_order_acquire)) {
          auto guard = em_.pin();
          uint64_t v1 = version_.load(std::memory_order_acquire);
          if (v1 & 1) continue;  // batch in flight: no committed boundary
          auto u = static_cast<vertex_id>(rng.next(n));
          auto v = static_cast<vertex_id>(rng.next(n));
          bool ans = ett_.connected_relaxed(u, v);
          if (version_.load(std::memory_order_acquire) != v1)
            continue;  // overlapped a batch: discard, like the serving layer
          buf.push_back({u, v, v1 >> 1, ans});
          recorded_.fetch_add(1, std::memory_order_release);
        }
      });
    }
  }
  ~seqlocked_readers() { stop(); }
  seqlocked_readers(const seqlocked_readers&) = delete;
  seqlocked_readers& operator=(const seqlocked_readers&) = delete;

  template <typename Batch>
  void write(Batch&& batch) {
    em_.begin_write();
    version_.fetch_add(1, std::memory_order_acq_rel);  // -> odd
    batch();
    version_.fetch_add(1, std::memory_order_release);  // -> even
    em_.advance();
    em_.end_write();
    ett_.drain_limbo();
  }

  /// Batches done, version even and stable: every reader iteration now
  /// validates. Waits until each reader has recorded something (so the
  /// check cannot starve on a loaded machine), then joins them.
  const std::vector<std::vector<served_record>>& finish() {
    while (recorded_.load(std::memory_order_acquire) < recs_.size())
      std::this_thread::yield();
    stop();
    return recs_;
  }

 private:
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& th : threads_)
      if (th.joinable()) th.join();
  }

  blocked_ett& ett_;
  epoch_manager& em_;
  std::atomic<uint64_t> version_{0};  // odd while a batch is in flight
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> recorded_{0};
  std::vector<std::vector<served_record>> recs_;
  std::vector<std::thread> threads_;
};

class BlockedRelaxedReads : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlockedRelaxedReads, SeqlockValidatedProbesMatchSomeBoundary) {
  testing::worker_pool_guard pool(GetParam());
  const vertex_id n = 256;
  const size_t rounds = conc_rounds();
  const size_t readers = conc_readers();

  epoch_manager em;
  blocked_ett ett(n, /*seed=*/0xc0ffee);
  ett.bind_read_epochs(&em);
  seqlocked_readers readers_of(ett, em, n, readers, 0xbead);

  // Writer: alternate acyclic link batches and cut batches.
  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
  states.push_back(oracle_labels(n, edges));
  random_stream rng(0x5e9);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<edge> batch;
    bool linking = (r % 2) == 0;
    if (linking) {
      // Acyclic batch of fresh cross-tree links (the batch_link contract).
      union_find uf(n);
      for (uint64_t key : edges) {
        edge e = edge_from_key(key);
        uf.unite(e.u, e.v);
      }
      for (int tries = 0; tries < 64; ++tries) {
        auto u = static_cast<vertex_id>(rng.next(n));
        auto v = static_cast<vertex_id>(rng.next(n));
        if (u == v || uf.connected(u, v)) continue;
        uf.unite(u, v);
        batch.push_back(edge{u, v}.canonical());
      }
    } else {
      // Cut a random subset of the present tree edges.
      for (uint64_t key : edges)
        if (rng.next(3) == 0) batch.push_back(edge_from_key(key));
      if (batch.empty() && !edges.empty())
        batch.push_back(edge_from_key(*edges.begin()));
    }

    readers_of.write([&] {
      if (batch.empty()) return;
      if (linking)
        ett.batch_link(batch);
      else
        ett.batch_cut(batch);
    });

    for (const edge& e : batch) {
      if (linking)
        edges.insert(edge_key(e));
      else
        edges.erase(edge_key(e));
    }
    states.push_back(oracle_labels(n, edges));
  }
  verify_records(readers_of.finish(), states, "blocked_ett relaxed");
  EXPECT_TRUE(ett.check_consistency().empty());
  ett.drain_limbo();
  ett.bind_read_epochs(nullptr);
}

// Sparse-directory growth regression: every round links a path through a
// FRESH id region — installing new vertex-directory chunks under the
// readers' feet — and cuts the path two regions back, draining emptied
// chunks through the epoch limbo. Readers probe connected_relaxed across
// the WHOLE id space the entire time, so most probes hit inactive ids:
// the relaxed probe's slot lookup must miss cleanly (and validated
// answers must stay oracle-exact) no matter how the chunk table is
// growing or shrinking. Dense per-vertex arrays made this trivially
// race-free; this pins the property for the chunked directory under TSan.
TEST_P(BlockedRelaxedReads, ProbesStayValidAcrossDirectoryGrowth) {
  testing::worker_pool_guard pool(GetParam());
  const size_t rounds = conc_rounds();
  const size_t readers = conc_readers();
  // A region spans several 32-slot chunks of blocked_ett's directory.
  constexpr vertex_id kRegion = 96;
  const auto n = static_cast<vertex_id>((rounds + 1) * kRegion);

  epoch_manager em;
  blocked_ett ett(n, /*seed=*/0xd1e);
  ett.bind_read_epochs(&em);
  seqlocked_readers readers_of(ett, em, n, readers, 0x96e4);

  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
  states.push_back(oracle_labels(n, edges));
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<edge> links;
    const auto base = static_cast<vertex_id>(r * kRegion);
    for (vertex_id i = 0; i + 1 < kRegion; ++i)
      links.push_back(edge{base + i, base + i + 1}.canonical());
    std::vector<edge> cuts;
    if (r >= 2) {
      const auto old = static_cast<vertex_id>((r - 2) * kRegion);
      for (vertex_id i = 0; i + 1 < kRegion; ++i)
        cuts.push_back(edge{old + i, old + i + 1}.canonical());
    }

    readers_of.write([&] {
      ett.batch_link(links);
      if (!cuts.empty()) ett.batch_cut(cuts);
    });

    for (const edge& e : links) edges.insert(edge_key(e));
    for (const edge& e : cuts) edges.erase(edge_key(e));
    states.push_back(oracle_labels(n, edges));
  }
  verify_records(readers_of.finish(), states,
                 "blocked_ett directory growth");
  EXPECT_TRUE(ett.check_consistency().empty());
  // Only the two newest regions are still linked; everything older was
  // deactivated and its chunks reclaimed.
  EXPECT_LE(ett.active_vertices(), 2u * kRegion);
  ett.drain_limbo();
  ett.bind_read_epochs(nullptr);
}

// Size-class regression: one path grows a link per batch from 2 to
// kLength vertices and is cut back down, round after round, so its tour
// keeps moving into a fresh block of the next size class (and, past one
// block, into full blocks) and back down — every move re-points the
// sentinels' vloc at a new block and retires the old one through the
// epoch limbo while readers probe the path's vertices.
TEST_P(BlockedRelaxedReads, ProbesStayValidWhileTourChangesSizeClass) {
  testing::worker_pool_guard pool(GetParam());
  const size_t rounds = std::max<size_t>(1, conc_rounds() / 10);
  const size_t readers = conc_readers();
  constexpr vertex_id kLength = 24;  // 70 entries: past one full block
  const vertex_id n = kLength + 8;   // a few ids that stay singletons

  epoch_manager em;
  blocked_ett ett(n, /*seed=*/0x5c1a);
  ett.bind_read_epochs(&em);
  seqlocked_readers readers_of(ett, em, n, readers, 0x51e);

  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
  states.push_back(oracle_labels(n, edges));
  auto step = [&](edge e, bool linking) {
    const std::vector<edge> batch{e};
    readers_of.write([&] {
      if (linking)
        ett.batch_link(batch);
      else
        ett.batch_cut(batch);
    });
    if (linking)
      edges.insert(edge_key(e));
    else
      edges.erase(edge_key(e));
    states.push_back(oracle_labels(n, edges));
  };
  for (size_t r = 0; r < rounds; ++r) {
    for (vertex_id k = 1; k < kLength; ++k) step(edge{k - 1, k}, true);
    ASSERT_EQ(ett.check_consistency(), "") << "grown, round " << r;
    for (vertex_id k = kLength - 1; k >= 1; --k) step(edge{k - 1, k}, false);
    ASSERT_EQ(ett.check_consistency(), "") << "shrunk, round " << r;
  }
  verify_records(readers_of.finish(), states, "blocked_ett size classes");
  EXPECT_EQ(ett.active_vertices(), 0u);
  ett.drain_limbo();
  ett.bind_read_epochs(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Workers, BlockedRelaxedReads, ::testing::Values(2u, 0u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      return testing::workers_name(info.param);
    });

// ---------------------------------------------------------------------
// Structure level: snapshot_query() across update batches
// ---------------------------------------------------------------------

class ConcurrentServe : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConcurrentServe, ViewsAgreeWithTheirCommittedOracle) {
  testing::worker_pool_guard pool(GetParam());
  const vertex_id n = 256;
  const size_t rounds = conc_rounds();
  const size_t readers = conc_readers();

  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  ASSERT_TRUE(s.serving());
  ASSERT_NE(s.read_epochs(), nullptr);
  EXPECT_EQ(s.committed_version(), 0u);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> recorded{0};
  std::vector<std::vector<served_record>> recs(readers);
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(readers);
  for (size_t t = 0; t < readers; ++t) {
    pool_threads.emplace_back([&, t] {
      random_stream rng(hash_combine(0xfeed, t));
      auto& buf = recs[t];
      uint64_t count = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto view = s.snapshot_query();
        auto u = static_cast<vertex_id>(rng.next(n));
        auto v = static_cast<vertex_id>(rng.next(n));
        served_record r{u, v, 0, false};
        if ((count++ & 7) == 0) {
          r.state = view.version();
          r.ans = view.connected_pinned(u, v);
          // Frozen accessors must agree with each other.
          if (r.ans) {
            ASSERT_EQ(view.component_size(u), view.component_size(v));
          }
        } else {
          r.ans = view.connected(u, v, &r.state);
        }
        buf.push_back(r);
        recorded.fetch_add(1, std::memory_order_release);
      }
    });
  }

  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
  states.push_back(oracle_labels(n, edges));
  random_stream rng(0xd1ce);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<edge> batch;
    bool inserting = rng.next(3) != 0;  // 2:1 insert:delete mix
    if (inserting) {
      for (int i = 0; i < 48; ++i) {
        auto u = static_cast<vertex_id>(rng.next(n));
        auto v = static_cast<vertex_id>(rng.next(n));
        batch.push_back({u, v});  // self-loops/dupes exercise sanitize
      }
      s.batch_insert(batch);
    } else {
      for (uint64_t key : edges)
        if (rng.next(2) == 0) batch.push_back(edge_from_key(key));
      s.batch_delete(batch);
    }
    for (const edge& raw : batch) {
      edge c = raw.canonical();
      if (c.is_self_loop() || c.v >= n) continue;
      if (inserting)
        edges.insert(edge_key(c));
      else
        edges.erase(edge_key(c));
    }
    states.push_back(oracle_labels(n, edges));
    ASSERT_EQ(s.committed_version(), states.size() - 1);
  }
  // Keep serving until every reader recorded at least one answer (the
  // structure is static now, so each iteration records).
  while (recorded.load(std::memory_order_acquire) < readers)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& th : pool_threads) th.join();

  verify_records(recs, states, "snapshot_query");
  auto rep = s.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConcurrentServe, ::testing::Values(1u, 2u, 0u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      return "blocked_" + testing::workers_name(info.param);
    });

// ---------------------------------------------------------------------
// Pinned views stay frozen; epochs gate node recycling
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

TEST(SnapshotView, EpochLimboDefersNodeRecycling) {
  const vertex_id n = 128;
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  std::vector<edge> chain;
  for (vertex_id v = 0; v + 1 < n; ++v) chain.push_back({v, v + 1});
  s.batch_insert(chain);

  {
    auto view = s.snapshot_query();
    // Deleting the chain frees tour memory the pinned view might still
    // probe: it must park in limbo, not recycle.
    s.batch_delete(chain);
    EXPECT_GT(s.pool_stats().limbo, 0u);
    EXPECT_TRUE(view.connected_pinned(0, n - 1));  // frozen answer
  }
  // View gone: the next batch boundary drains the limbo.
  s.batch_insert({});
  EXPECT_EQ(s.pool_stats().limbo, 0u);
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
