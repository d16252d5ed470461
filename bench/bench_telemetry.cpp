// Telemetry overhead: pins the "low-overhead" claim of src/obs/ with
// numbers, in three tiers:
//
//  1. Primitive cost — counter add / histogram record / span
//     construct+destroy, each one scope of the hot-path call.
//  2. Contention — the same counter hammered from every worker
//     concurrently (the sharding's whole reason to exist).
//  3. End-to-end — a full batch insert+delete replay with the per-batch
//     spans live; its row in the committed BENCH_micro.json ledger shows
//     creeping span overhead, and the primitive tiers bound it from below.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "obs/telemetry.hpp"
#include "parallel/scheduler.hpp"

using namespace bdc;

static void BM_CounterAdd(benchmark::State& state) {
  obs::counter c;
  for (auto _ : state) c.add(1);
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

static void BM_HistogramRecord(benchmark::State& state) {
  obs::histogram h;
  uint64_t v = 0;
  for (auto _ : state) h.record(v++ & 0xffff);
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void BM_PhaseSpan(benchmark::State& state) {
  // The real macro path: cached histogram reference + RAII span (two
  // steady_clock reads + one histogram record per scope).
  for (auto _ : state) {
    BDC_PHASE_SPAN(sp, "bench.telemetry_span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseSpan);

static void BM_CounterAddContended(benchmark::State& state) {
  // All workers increment ONE counter in a tight parallel loop: the
  // per-worker shards keep this near the uncontended cost instead of a
  // cache-line ping-pong.
  obs::counter c;
  const size_t per_round = 1 << 14;
  for (auto _ : state) {
    parallel_for(0, per_round, [&](size_t) { c.add(1); }, 1);
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(per_round));
}
BENCHMARK(BM_CounterAddContended);

// End-to-end replay with the instrumentation live.
static void BM_ReplayMixed(benchmark::State& state) {
  const vertex_id n = 1 << 12;
  auto graph = gen_erdos_renyi(n, 4 * n, 11);
  auto stream = make_deletion_stream(graph, n, 512, 256, 128, 3);
  size_t edges_per_replay = 0;
  for (const auto& b : stream) edges_per_replay += b.edges.size();
  for (auto _ : state) {
    batch_dynamic_connectivity s(n, {});
    for (const auto& b : stream) {
      switch (b.op) {
        case update_batch::kind::insert:
          s.batch_insert(b.edges);
          break;
        case update_batch::kind::erase:
          s.batch_delete(b.edges);
          break;
        case update_batch::kind::query: {
          auto ans = s.batch_connected(b.queries);
          benchmark::DoNotOptimize(ans);
          break;
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges_per_replay));
}
BENCHMARK(BM_ReplayMixed)->Unit(benchmark::kMillisecond);
