// Concurrent query serving, differential-checked (the TSan-targeted
// suite).
//
// Reader threads hammer batch_dynamic_connectivity's snapshot_query()
// views WHILE batch_insert/batch_delete run, across worker-pool sizes (1
// and 2 workers plus the hardware default). Each reader reuses a view for
// several reads, mixing the freshest-committed surface (connected) with
// the frozen one (connected_pinned / component_size). Every answer must
// match the union-find oracle of the exact committed batch count it
// claims, and a freshest-committed answer may never claim an older count
// than committed_version() read just before the call.
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
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_connectivity.hpp"
#include "spanning/union_find.hpp"
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
// snapshot_query() across update batches
// ---------------------------------------------------------------------

/// Reader threads over one serving structure. Each reader takes a view,
/// reuses it for kReadsPerView reads over ids [0, n) and records every
/// answer with the committed batch count it claims; every 8th read asks
/// the pinned surface. A freshest-committed read that claims a count below
/// committed_version() read just before the call counts as stale.
class served_readers {
 public:
  static constexpr int kReadsPerView = 8;

  served_readers(const batch_dynamic_connectivity& s, size_t readers,
                 uint64_t seed)
      : recs_(readers) {
    threads_.reserve(readers);
    for (size_t t = 0; t < readers; ++t) {
      threads_.emplace_back([this, &s, t, seed] {
        const vertex_id n = s.num_vertices();
        random_stream rng(hash_combine(seed, t));
        auto& buf = recs_[t];
        uint64_t count = 0;
        while (!stop_.load(std::memory_order_acquire)) {
          auto view = s.snapshot_query();
          for (int i = 0; i < kReadsPerView; ++i) {
            auto u = static_cast<vertex_id>(rng.next(n));
            auto v = static_cast<vertex_id>(rng.next(n));
            served_record r{u, v, 0, false};
            if ((count++ & 7) == 0) {
              r.state = view.version();
              r.ans = view.connected_pinned(u, v);
              // Frozen accessors must agree with each other.
              if (r.ans) {
                EXPECT_EQ(view.component_size(u), view.component_size(v));
              }
            } else {
              const uint64_t floor = s.committed_version();
              r.ans = view.connected(u, v, &r.state);
              if (r.state < floor) stale_.fetch_add(1);
            }
            buf.push_back(r);
          }
          recorded_.fetch_add(1, std::memory_order_release);
        }
      });
    }
  }
  ~served_readers() { stop(); }
  served_readers(const served_readers&) = delete;
  served_readers& operator=(const served_readers&) = delete;

  /// Batches done: keeps serving until every reader has recorded
  /// something (so the check cannot starve on a loaded machine), then
  /// joins them.
  const std::vector<std::vector<served_record>>& finish() {
    while (recorded_.load(std::memory_order_acquire) < recs_.size())
      std::this_thread::yield();
    stop();
    return recs_;
  }

  [[nodiscard]] uint64_t stale() const { return stale_.load(); }

 private:
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& th : threads_)
      if (th.joinable()) th.join();
  }

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> stale_{0};
  std::vector<std::vector<served_record>> recs_;
  std::vector<std::thread> threads_;
};

/// The serving structure under test, plus the oracle labels of every
/// committed batch count (states[k] is the graph after k batches).
struct served_graph {
  explicit served_graph(vertex_id n) : s(n, serving()) {
    states.push_back(oracle_labels(n, edges));
  }
  static options serving() {
    options o;
    o.concurrent_reads = true;
    return o;
  }
  void insert(std::span<const edge> batch) {
    s.batch_insert(batch);
    for (const edge& raw : batch) {
      edge c = raw.canonical();
      if (!c.is_self_loop() && c.v < s.num_vertices())
        edges.insert(edge_key(c));
    }
    commit();
  }
  void erase(std::span<const edge> batch) {
    s.batch_delete(batch);
    for (const edge& raw : batch) edges.erase(edge_key(raw.canonical()));
    commit();
  }
  void commit() {
    states.push_back(oracle_labels(s.num_vertices(), edges));
    ASSERT_EQ(s.committed_version(), states.size() - 1);
  }

  batch_dynamic_connectivity s;
  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
};

class ConcurrentServe : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConcurrentServe, ViewsAgreeWithTheirCommittedOracle) {
  testing::worker_pool_guard pool(GetParam());
  const vertex_id n = 256;
  served_graph g(n);
  ASSERT_TRUE(g.s.serving());
  ASSERT_NE(g.s.read_epochs(), nullptr);
  EXPECT_EQ(g.s.committed_version(), 0u);
  served_readers readers(g.s, conc_readers(), 0xfeed);

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
      for (uint64_t key : g.edges)
        if (rng.next(2) == 0) batch.push_back(edge_from_key(key));
      g.erase(batch);
    }
  }
  verify_records(readers.finish(), g.states, "snapshot_query");
  EXPECT_EQ(readers.stale(), 0u)
      << "a fresh read claimed a state older than the committed one";
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
  served_readers readers(g.s, conc_readers(), 0x96e4);

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
  verify_records(readers.finish(), g.states, "directory growth");
  EXPECT_EQ(readers.stale(), 0u);
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
  served_readers readers(g.s, conc_readers(), 0x51e);

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
  verify_records(readers.finish(), g.states, "size classes");
  EXPECT_EQ(readers.stale(), 0u);
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
