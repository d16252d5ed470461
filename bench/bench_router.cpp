// BM_RouterMixedTrace — the workload-adaptive engine router (ISSUE 8)
// against every fixed engine on the committed mixed phase-skewed trace
// shape: insert ramp → churn → query flood → deletion burst. The trace is
// regenerated in-process with the same generator parameters and seed as
// tools/testdata/mixed_phase_stream.txt (gen --stream=mixed erdos 32768
// 163840 512 7), so the numbers line up with `stream_runner run
// --engine=... --check` on the committed file.
//
// Each iteration replays the whole trace through a fresh structure;
// items/s is total operations (updates + queries) per second — the
// headline "auto ≥ every fixed engine" criterion reads straight off the
// items_per_second column. Correctness rides along: every query batch is
// differential-checked against precomputed stream-oracle answers and
// surfaces as the "wrong" counter — 0 for auto/dynamic/hdt/static. The
// insert-only incremental engine is included as a lower-bound reference;
// it ignores the deletion batches, so its (higher) throughput comes with
// a non-zero "wrong" count and is NOT comparable.
//
// Router-only counters: promotion cost (one-shot bulk load, us) and
// insert/delete phase switches.
#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/incremental_connectivity.hpp"
#include "baselines/static_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "gen/update_stream.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "util/timer.hpp"

using namespace bdc;

namespace {

constexpr vertex_id kN = 32768;
constexpr size_t kM = 5 * static_cast<size_t>(kN);
constexpr size_t kBatch = 512;
constexpr uint64_t kSeed = 7;

enum engine_id {
  kAuto = 0,
  kDynamic,
  kHdt,
  kStatic,
  kIncremental,
  kEngineCount
};

const char* engine_label(int id) {
  switch (id) {
    case kAuto: return "auto";
    case kDynamic: return "dynamic";
    case kHdt: return "hdt";
    case kStatic: return "static";
    default: return "incremental";
  }
}

const update_stream& mixed_trace() {
  static const update_stream stream = [] {
    auto graph = gen_erdos_renyi(kN, kM, kSeed);
    return make_phase_skewed_stream(graph, kN, kBatch, /*flood_batches=*/8,
                                    /*flood_queries=*/4 * kBatch,
                                    kSeed + 1);
  }();
  return stream;
}

/// Expected answers per query batch (the stream oracle in lockstep,
/// computed once and shared by every engine's run).
const std::vector<std::vector<bool>>& oracle_answers() {
  static const std::vector<std::vector<bool>> answers = [] {
    std::vector<std::vector<bool>> out;
    stream_oracle oracle(kN);
    for (const auto& b : mixed_trace()) {
      oracle.apply(b);
      if (b.op != update_batch::kind::query) continue;
      std::vector<bool> ans(b.queries.size());
      for (size_t i = 0; i < b.queries.size(); ++i)
        ans[i] = oracle.connected(b.queries[i].first, b.queries[i].second);
      out.push_back(std::move(ans));
    }
    return out;
  }();
  return answers;
}

struct trace_result {
  size_t ops = 0;    // updates + queries replayed
  size_t wrong = 0;  // query answers disagreeing with the oracle
};

template <typename Structure>
trace_result replay_trace(Structure& s) {
  trace_result r;
  const auto& expected = oracle_answers();
  size_t qb = 0;
  for (const auto& b : mixed_trace()) {
    switch (b.op) {
      case update_batch::kind::insert:
        s.batch_insert(b.edges);
        r.ops += b.edges.size();
        break;
      case update_batch::kind::erase:
        s.batch_delete(b.edges);
        r.ops += b.edges.size();
        break;
      case update_batch::kind::query: {
        auto ans = s.batch_connected(b.queries);
        r.ops += b.queries.size();
        const auto& exp = expected[qb++];
        for (size_t i = 0; i < ans.size(); ++i) r.wrong += ans[i] != exp[i];
        break;
      }
    }
  }
  return r;
}

struct incremental_shim {
  incremental_connectivity inner;
  explicit incremental_shim(vertex_id n) : inner(n) {}
  void batch_insert(std::span<const edge> es) { inner.batch_insert(es); }
  void batch_delete(std::span<const edge>) {}  // insert-only model
  std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) {
    return inner.batch_connected(qs);
  }
};

}  // namespace

static void BM_RouterMixedTrace(benchmark::State& state) {
  const int id = static_cast<int>(state.range(0));
  (void)oracle_answers();  // precompute outside the timing loop
  state.SetLabel(engine_label(id));

  trace_result last{};
  router_statistics router_stats{};
  for (auto _ : state) {
    timer t;
    switch (id) {
      case kAuto: {
        engine_router s(kN);
        last = replay_trace(s);
        state.SetIterationTime(t.elapsed());
        router_stats = s.stats();
        break;
      }
      case kDynamic: {
        batch_dynamic_connectivity s(kN);
        last = replay_trace(s);
        state.SetIterationTime(t.elapsed());
        break;
      }
      case kHdt: {
        hdt_connectivity s(kN);
        last = replay_trace(s);
        state.SetIterationTime(t.elapsed());
        break;
      }
      case kStatic: {
        static_recompute_connectivity s(kN);
        last = replay_trace(s);
        state.SetIterationTime(t.elapsed());
        break;
      }
      default: {
        incremental_shim s(kN);
        last = replay_trace(s);
        state.SetIterationTime(t.elapsed());
        break;
      }
    }
  }

  state.SetItemsProcessed(static_cast<int64_t>(last.ops) *
                          state.iterations());
  state.counters["wrong"] = static_cast<double>(last.wrong);
  if (id == kAuto) {
    state.counters["promotion_us"] =
        static_cast<double>(router_stats.promotion_micros);
    state.counters["phase_switches"] =
        static_cast<double>(router_stats.phase_switches);
  }
}
BENCHMARK(BM_RouterMixedTrace)
    ->DenseRange(0, kEngineCount - 1)
    ->ArgNames({"engine"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
