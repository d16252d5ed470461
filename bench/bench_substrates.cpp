// E10 — substrate cost model, in two halves:
//
//  1. The parallel primitives the analysis treats as O(k) work (semisort
//     [24], parallel dictionary [23], spanning forest [22], scan/pack
//     [34]) should show flat-ish per-element costs as input size grows.
//
//  2. The Euler-tour forest (blocked_ett) on batch_link / batch_cut
//     workloads, plus pooled vs heap node allocation. BM_SubstrateLinkCut
//     sweeps k from 1 up (Theorem 2: the per-edge cost should fall as k
//     grows at fixed n), BM_SubstrateSmallComponents isolates the
//     small-component regime the packed blocks target,
//     BM_SubstrateGiantTour batches link/cut inside one giant tour, and
//     BM_SubstrateStream runs the full dynamic structure. Query batches
//     on the top-level forest are timed by BM_BatchConnected and
//     BM_SingleConnected (bench_claims.cpp). Rows compare across
//     BDC_NUM_WORKERS=1/2/4 runs.
#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "ett/blocked_ett.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "parallel/primitives.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"
#include "util/node_pool.hpp"
#include "util/random.hpp"

using namespace bdc;

/// One query batch on a forest: the single parallel pass of connected()
/// that batch_dynamic_connectivity::batch_connected runs on its top level.
static std::vector<uint8_t> forest_queries(
    const blocked_ett& f,
    std::span<const std::pair<vertex_id, vertex_id>> qs) {
  std::vector<uint8_t> out(qs.size());
  parallel_for(0, qs.size(), [&](size_t i) {
    out[i] = f.connected(qs[i].first, qs[i].second);
  });
  return out;
}

static void BM_Semisort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bdc::random r(41);
  std::vector<std::pair<uint32_t, uint64_t>> pairs(n);
  for (size_t i = 0; i < n; ++i)
    pairs[i] = {static_cast<uint32_t>(r.ith_rand(i, n / 4 + 1)),
                r.ith_rand(i)};
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(group_by_key(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Semisort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_DictionaryInsertBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::pair<uint64_t, uint64_t>> kvs(n);
  for (size_t i = 0; i < n; ++i) kvs[i] = {hash64(i) | 1, i};
  for (auto _ : state) {
    phase_concurrent_map<uint64_t> m(n);
    m.insert_batch(kvs);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_DictionaryInsertBatch)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_SpanningForest(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto es = gen_erdos_renyi(static_cast<vertex_id>(n), 4 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanning_forest(n, es));
  }
  state.SetItemsProcessed(static_cast<int64_t>(4 * n) * state.iterations());
}
BENCHMARK(BM_SpanningForest)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_ScanPack(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bdc::random r(43);
  std::vector<long> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<long>(r.ith_rand(i, 100));
  for (auto _ : state) {
    auto evens = filter(v, [](long x) { return x % 2 == 0; });
    benchmark::DoNotOptimize(evens);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScanPack)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ---------------------------------------------------------------------
// The Euler-tour forest. Arg(0): batch size k. Every mutating batch call
// includes its ett.* phase span, as it does inside the structure.
// ---------------------------------------------------------------------

constexpr vertex_id kEttN = 1 << 14;

static void BM_SubstrateLinkCut(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  auto forest_edges =
      gen_random_forest(kEttN, kEttN / 2 >= k ? kEttN - k : 1, 12);
  forest_edges.resize(std::min(forest_edges.size(), k));
  std::span<const edge> batch(forest_edges.data(), forest_edges.size());
  blocked_ett f(kEttN);
  for (auto _ : state) {
    f.batch_link(batch);
    f.batch_cut(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(2 * batch.size()) *
                          state.iterations());
}
BENCHMARK(BM_SubstrateLinkCut)
    ->ArgsProduct({{1, 16, 256, 4096, 16384}})
    ->ArgNames({"k"});

static void BM_SubstrateCountsAndFetch(benchmark::State& state) {
  std::vector<count_delta> up(256), down(256);
  for (uint32_t i = 0; i < 256; ++i) {
    up[i] = {i * 5, 0, 2};
    down[i] = {i * 5, 0, -2};
  }
  blocked_ett f(kEttN);
  f.batch_link(gen_random_tree(kEttN, 17));
  for (auto _ : state) {
    f.batch_add_counts(up);
    benchmark::DoNotOptimize(f.fetch_nontree(7, 128));
    f.batch_add_counts(down);
  }
  state.SetItemsProcessed(512 * state.iterations());
}
BENCHMARK(BM_SubstrateCountsAndFetch);

// Per-element queries: N direct find_rep calls per iteration.
static void BM_SubstrateFindRep(benchmark::State& state) {
  // Shuffled probe order: real fetch/expand loops walk scattered ids.
  std::vector<vertex_id> vs(kEttN);
  bdc::random r(33);
  for (size_t i = 0; i < vs.size(); ++i)
    vs[i] = static_cast<vertex_id>(r.ith_rand(i, kEttN));
  blocked_ett f(kEttN);
  f.batch_link(gen_random_forest(kEttN, 64, 32));
  for (auto _ : state)
    for (vertex_id v : vs) benchmark::DoNotOptimize(f.find_rep(v));
  state.SetItemsProcessed(static_cast<int64_t>(vs.size()) *
                          state.iterations());
}
BENCHMARK(BM_SubstrateFindRep);

// ---------------------------------------------------------------------
// The small-component regime (De Man et al. 2024): a forest of many
// components of size S under intra-component link/cut churn plus
// connectivity queries. This is where the HDT hierarchy's low levels
// live (level i caps components at 2^(i+1)), i.e. the regime the
// packed blocks target. Arg(0): component size S.
// ---------------------------------------------------------------------

static void BM_SubstrateSmallComponents(benchmark::State& state) {
  size_t comp = static_cast<size_t>(state.range(0));
  // Cross-component queries (always disconnected: worst-case walks).
  std::vector<std::pair<vertex_id, vertex_id>> qs(kEttN / comp);
  bdc::random qr(23);
  for (size_t i = 0; i < qs.size(); ++i)
    qs[i] = {static_cast<vertex_id>(qr.ith_rand(2 * i, kEttN)),
             static_cast<vertex_id>(qr.ith_rand(2 * i + 1, kEttN))};
  blocked_ett f(kEttN);
  // Paths of `comp` vertices; cut/relink each component's middle edge.
  std::vector<edge> middles;
  for (vertex_id base = 0; base + comp <= kEttN;
       base += static_cast<vertex_id>(comp)) {
    std::vector<edge> path;
    for (vertex_id i = 0; i + 1 < comp; ++i)
      path.push_back({base + i, base + i + 1});
    f.batch_link(path);
    middles.push_back(path[path.size() / 2]);
  }
  for (auto _ : state) {
    f.batch_cut(middles);
    f.batch_link(middles);
    benchmark::DoNotOptimize(forest_queries(f, qs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(3 * qs.size()) *
                          state.iterations());
}
BENCHMARK(BM_SubstrateSmallComponents)
    ->ArgsProduct({{4, 16, 64, 256}})
    ->ArgNames({"comp"});

// ---------------------------------------------------------------------
// The opposite regime: one giant tour. A random 2^18-vertex tree is
// linked once; each iteration cuts k of its edges, then re-links them,
// so every batch splits and splices the same tour k times (the top
// level of the HDT hierarchy on a connected graph). Arg(0): k. Real
// time: the batches fan out across the worker pool.
// ---------------------------------------------------------------------

static void BM_SubstrateGiantTour(benchmark::State& state) {
  constexpr vertex_id kGiantN = 1 << 18;
  size_t k = static_cast<size_t>(state.range(0));
  auto tree = gen_random_tree(kGiantN, 41);
  // A seeded Fisher-Yates prefix: k distinct tree edges spread over the
  // whole tour.
  random_stream rs(42);
  for (size_t i = 0; i < k; ++i)
    std::swap(tree[i], tree[i + rs.next(tree.size() - i)]);
  std::span<const edge> batch(tree.data(), k);
  blocked_ett f(kGiantN);
  f.batch_link(tree);
  for (auto _ : state) {
    f.batch_cut(batch);
    f.batch_link(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(2 * k) * state.iterations());
}
BENCHMARK(BM_SubstrateGiantTour)
    ->ArgsProduct({{1 << 8, 1 << 12, 1 << 16}})
    ->ArgNames({"k"})
    ->UseRealTime();

// ---------------------------------------------------------------------
// The full dynamic structure: one deletion stream (insert + batched
// deletes + queries) replayed end to end.
// ---------------------------------------------------------------------

static void BM_SubstrateStream(benchmark::State& state) {
  const vertex_id n = 1 << 12;
  auto graph = gen_erdos_renyi(n, 4 * n, 29);
  auto stream = make_deletion_stream(graph, n, 512, 256, 128, 30);
  size_t ops = 0;
  for (auto _ : state) {
    batch_dynamic_connectivity dc(n);
    ops = 0;
    for (const auto& b : stream) {
      switch (b.op) {
        case update_batch::kind::insert:
          dc.batch_insert(b.edges);
          ops += b.edges.size();
          break;
        case update_batch::kind::erase:
          dc.batch_delete(b.edges);
          ops += b.edges.size();
          break;
        case update_batch::kind::query:
          benchmark::DoNotOptimize(dc.batch_connected(b.queries));
          ops += b.queries.size();
          break;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops) * state.iterations());
}
BENCHMARK(BM_SubstrateStream);

// ---------------------------------------------------------------------
// Pooled vs per-node heap allocation (the acceptance gate for
// util/node_pool.hpp: the pool must not lose to operator new on the
// alloc/free churn a batch insert/delete performs).
// ---------------------------------------------------------------------

static void BM_NodePoolAllocFree(benchmark::State& state) {
  // Between the blocked tours' 80-byte and 144-byte block classes.
  constexpr size_t kNodeBytes = 96;
  node_pool pool;
  std::vector<void*> ps(4096);
  for (auto _ : state) {
    for (auto& p : ps) p = pool.allocate(kNodeBytes);
    for (void* p : ps) pool.deallocate(p, kNodeBytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ps.size()) *
                          state.iterations());
}
BENCHMARK(BM_NodePoolAllocFree);

static void BM_HeapAllocFree(benchmark::State& state) {
  constexpr size_t kNodeBytes = 96;
  std::vector<void*> ps(4096);
  for (auto _ : state) {
    for (auto& p : ps) p = ::operator new(kNodeBytes);
    for (void* p : ps) ::operator delete(p);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ps.size()) *
                          state.iterations());
}
BENCHMARK(BM_HeapAllocFree);
