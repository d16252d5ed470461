// The paper's batch claims: queries, insertions, and the delete side.
//
//   * BM_BatchConnected (E2, Theorem 3): a batch of k connectivity
//     queries costs O(k lg(1 + n/k)) expected work and O(lg n) depth.
//     Per-query time should fall as k grows at fixed n.
//   * BM_BatchInsert (E3, Theorem 4): a batch of k insertions costs
//     O(k lg(1 + n/k)) expected work and O(lg n) depth. Per-edge
//     insertion time should fall with k at fixed n. Each iteration
//     inserts a fresh copy of the graph in batches of k into a freshly
//     built structure (construction untimed).
//   * BM_DeleteBatchSweep (E6, Theorem 9): amortized O(lg n lg(1 + n/Δ))
//     work per deleted edge, Δ the deletion batch size. Sweeping Δ from 1
//     to m/2 at fixed n and m, us_per_deleted_edge should fall with
//     lg_term = lg(1 + n/Δ); sequential HDT (rows hdt:1, at the two
//     extreme Δ) is Δ-independent and stays flat. The sweep follows the
//     batch-size methodology of De Man et al., "Towards Scalable and
//     Practical Batch-Dynamic Connectivity".
//   * BM_LevelSearchAblation (E4, Theorems 5 & 7; E9, §3.3): the three
//     fetch schedules of the one level search, which share everything
//     else. Algorithm 5 (interleaved) runs one doubling sequence per
//     level, O(lg n) phases per level; Algorithm 4 (simple) restarts a
//     piece's doubling after its supercomponent merges, O(lg^2 n) —
//     phases_per_level. On this ER graph the two read about the same
//     phases_per_level (1.05 at batch 64, 1.3 at batch 4096): pieces
//     rarely merge more than once per level here, so telling Theorem 5
//     from Theorem 7 needs a shape where they merge repeatedly. Fetching
//     every remaining non-tree edge at once (scan_all) fetches work the
//     doubling search never charges to a level decrease —
//     fetch_per_push.
//   * BM_EpochVsStatic (E7, §1 motivation): a queried epoch costs the
//     dynamic structure O(k polylog n), flat in m, while recompute from
//     scratch pays O(m + n) — ms_per_epoch at batch 256 as m grows.
//
// The update rows use manual timing: each iteration builds a fresh
// structure, does its set-up untimed (for the delete side, inserting the
// whole graph), then times only the batches the claim is about.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "baselines/static_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "util/timer.hpp"

using namespace bdc;

// ---------------------------------------------------------------------
// Queries (E2): one shared ER graph, built once.
// ---------------------------------------------------------------------

namespace {

constexpr vertex_id kQueryN = 1 << 15;

batch_dynamic_connectivity& shared_graph() {
  static batch_dynamic_connectivity* dc = [] {
    auto* p = new batch_dynamic_connectivity(kQueryN);
    p->batch_insert(gen_erdos_renyi(kQueryN, 2 * kQueryN, 21));
    return p;
  }();
  return *dc;
}

}  // namespace

static void BM_BatchConnected(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  auto& dc = shared_graph();
  auto qs = make_query_batch(kQueryN, k, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.batch_connected(qs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(k) * state.iterations());
}
BENCHMARK(BM_BatchConnected)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536);

static void BM_SingleConnected(benchmark::State& state) {
  auto& dc = shared_graph();
  bdc::random r(23);
  uint64_t i = 0;
  for (auto _ : state) {
    vertex_id u = static_cast<vertex_id>(r.ith_rand(i++, kQueryN));
    vertex_id v = static_cast<vertex_id>(r.ith_rand(i++, kQueryN));
    benchmark::DoNotOptimize(dc.connected(u, v));
  }
}
BENCHMARK(BM_SingleConnected);

static void BM_Components(benchmark::State& state) {
  auto& dc = shared_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.components());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kQueryN) * state.iterations());
}
BENCHMARK(BM_Components);

// ---------------------------------------------------------------------
// Insertions (E3).
// ---------------------------------------------------------------------

namespace {
constexpr vertex_id kInsertN = 1 << 14;
constexpr size_t kInsertM = 2 * static_cast<size_t>(kInsertN);
}  // namespace

static void BM_BatchInsert(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  auto graph = gen_erdos_renyi(kInsertN, kInsertM, 31);
  auto stream = make_insertion_stream(graph, k, 32);
  for (auto _ : state) {
    auto dc = std::make_unique<batch_dynamic_connectivity>(kInsertN);
    timer t;
    for (const auto& b : stream) dc->batch_insert(b.edges);
    state.SetIterationTime(t.elapsed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(kInsertM) * state.iterations());
}
BENCHMARK(BM_BatchInsert)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(32768)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_InsertConnectedComponentsMix(benchmark::State& state) {
  // Mixed insert + query epochs (a common ingest pattern).
  auto graph = gen_rmat(kInsertN, kInsertM, 33);
  auto stream = make_insertion_stream(graph, 2048, 34);
  auto qs = make_query_batch(kInsertN, 1024, 35);
  for (auto _ : state) {
    auto dc = std::make_unique<batch_dynamic_connectivity>(kInsertN);
    timer t;
    for (const auto& b : stream) {
      dc->batch_insert(b.edges);
      benchmark::DoNotOptimize(dc->batch_connected(qs));
    }
    state.SetIterationTime(t.elapsed());
  }
}
BENCHMARK(BM_InsertConnectedComponentsMix)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The delete side (E4, E6, E7, E9).
// ---------------------------------------------------------------------

namespace {

// make_deletion_stream emits every insert batch before the first
// deletion, so the two phases replay separately.
template <typename S>
void insert_all(S& s, const update_stream& stream) {
  for (const auto& b : stream)
    if (b.op == update_batch::kind::insert) s.batch_insert(b.edges);
}

/// Wall seconds spent in the stream's deletion batches.
template <typename S>
double time_deletions(S& s, const update_stream& stream) {
  double seconds = 0;
  for (const auto& b : stream) {
    if (b.op != update_batch::kind::erase) continue;
    timer t;
    s.batch_delete(b.edges);
    seconds += t.elapsed();
  }
  return seconds;
}

}  // namespace

static void BM_DeleteBatchSweep(benchmark::State& state) {
  constexpr vertex_id n = 1 << 12;
  constexpr size_t m = 4 * static_cast<size_t>(n);
  const auto delta = static_cast<size_t>(state.range(0));
  const bool hdt = state.range(1) != 0;
  auto graph = gen_erdos_renyi(n, m, 3);
  auto stream = make_deletion_stream(graph, n, 4096, delta, 0, 4);
  auto run = [&](auto& s) {
    insert_all(s, stream);
    return time_deletions(s, stream);
  };
  double total = 0;
  for (auto _ : state) {
    const double seconds =
        hdt ? run(*std::make_unique<hdt_connectivity>(n))
            : run(*std::make_unique<batch_dynamic_connectivity>(n));
    state.SetIterationTime(seconds);
    total += seconds;
  }
  state.SetLabel(hdt ? "hdt" : "parallel");
  state.counters["us_per_deleted_edge"] =
      total * 1e6 / static_cast<double>(m * state.iterations());
  state.counters["lg_term"] =
      std::log2(1.0 + static_cast<double>(n) / static_cast<double>(delta));
}
BENCHMARK(BM_DeleteBatchSweep)
    ->ArgNames({"delta", "hdt"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({4096, 0})
    ->Args({8192, 0})  // m/2
    ->Args({1, 1})
    ->Args({8192, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_LevelSearchAblation(benchmark::State& state) {
  // Dense graph: components carry many internal non-tree edges, the
  // regime where scanning everything hurts most.
  constexpr vertex_id n = 1 << 11;
  constexpr size_t m = 8 * static_cast<size_t>(n);
  options o;
  o.search = static_cast<level_search_kind>(state.range(0));
  const auto batch = static_cast<size_t>(state.range(1));
  auto graph = gen_erdos_renyi(n, m, 9);
  auto stream = make_deletion_stream(graph, n, 4096, batch, 0, 10);
  statistics sum;
  for (auto _ : state) {
    auto s = std::make_unique<batch_dynamic_connectivity>(n, o);
    insert_all(*s, stream);
    s->reset_stats();  // report the deletion phase only
    state.SetIterationTime(time_deletions(*s, stream));
    const statistics& st = s->stats();
    sum.levels_searched += st.levels_searched;
    sum.doubling_phases += st.doubling_phases;
    sum.edges_fetched += st.edges_fetched;
    sum.edges_pushed += st.edges_pushed;
  }
  const char* names[] = {"interleaved", "simple", "scan_all"};
  state.SetLabel(names[state.range(0)]);
  auto ratio = [](uint64_t a, uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto iters = static_cast<double>(state.iterations());
  state.counters["phases_per_level"] =
      ratio(sum.doubling_phases, sum.levels_searched);
  state.counters["fetch_per_push"] = ratio(sum.edges_fetched, sum.edges_pushed);
  state.counters["edges_fetched"] =
      static_cast<double>(sum.edges_fetched) / iters;
  state.counters["edges_pushed"] = static_cast<double>(sum.edges_pushed) / iters;
}
BENCHMARK(BM_LevelSearchAblation)
    ->ArgNames({"search", "batch"})
    ->ArgsProduct({{static_cast<int64_t>(level_search_kind::interleaved),
                    static_cast<int64_t>(level_search_kind::simple),
                    static_cast<int64_t>(level_search_kind::scan_all)},
                   {64, 512, 4096}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_EpochVsStatic(benchmark::State& state) {
  constexpr vertex_id n = 1 << 14;
  constexpr size_t batch = 256, epochs = 16;
  const auto m = static_cast<size_t>(state.range(0));
  const bool recompute = state.range(1) != 0;
  auto graph = gen_erdos_renyi(n, m, 5 + m);
  auto qs = make_query_batch(n, 64, 99);
  // One epoch: a deletion batch, then a query batch (which forces the
  // static baseline to recompute).
  auto run = [&](auto& s) {
    s.batch_insert(graph);
    (void)s.batch_connected(qs);  // settle the initial state
    timer t;
    for (size_t e = 0; e < epochs; ++e) {
      s.batch_delete(std::span<const edge>(graph.data() + e * batch, batch));
      benchmark::DoNotOptimize(s.batch_connected(qs));
    }
    return t.elapsed();
  };
  double total = 0;
  for (auto _ : state) {
    const double seconds =
        recompute ? run(*std::make_unique<static_recompute_connectivity>(n))
                  : run(*std::make_unique<batch_dynamic_connectivity>(n));
    state.SetIterationTime(seconds);
    total += seconds;
  }
  state.SetLabel(recompute ? "static" : "dynamic");
  state.counters["ms_per_epoch"] =
      total * 1e3 / static_cast<double>(epochs * state.iterations());
}
BENCHMARK(BM_EpochVsStatic)
    ->ArgNames({"m", "static"})
    ->ArgsProduct({{1 << 14, 1 << 16, 1 << 18}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
