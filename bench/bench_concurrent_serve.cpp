// BM_ConcurrentServe — update-batch throughput under concurrent query
// serving. A persistent batch_dynamic_connectivity with the
// epoch-snapshot read service enabled churns insert/delete batches while
// R reader threads (served_reads from gen/replay_oracle.hpp, the reader
// pool the tests and stream_runner check; started once, OUTSIDE the
// timing loop) hammer snapshot_query(). The sweep runs R in {0, 2, 4};
// readers answer from the latest published snapshot. R=0 isolates the
// serving overhead itself: the snapshot publish every batch plus epoch
// bookkeeping.
//
// Counters: "served" is the total number of concurrent queries answered
// across the whole run; "served/s" the rate against benchmark time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "util/timer.hpp"

using namespace bdc;

namespace {
constexpr vertex_id kN = 4096;
constexpr size_t kM = 2 * static_cast<size_t>(kN);
constexpr size_t kBatch = 512;
}  // namespace

static void BM_ConcurrentServe(benchmark::State& state) {
  const auto readers = static_cast<unsigned>(state.range(0));
  auto graph = gen_erdos_renyi(kN, kM, 7);
  std::vector<std::vector<edge>> batches;
  for (size_t i = 0; i < graph.size(); i += kBatch) {
    batches.emplace_back(
        graph.begin() + static_cast<ptrdiff_t>(i),
        graph.begin() +
            static_cast<ptrdiff_t>(std::min(i + kBatch, graph.size())));
  }

  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(kN, o);

  served_reads pool(s, readers, 0xbe7c);

  // Each iteration builds the graph up and tears it back down, so the
  // structure re-enters the same (empty) state and iterations compose.
  for (auto _ : state) {
    timer t;
    for (const auto& b : batches) s.batch_insert(b);
    for (const auto& b : batches) s.batch_delete(b);
    state.SetIterationTime(t.elapsed());
  }
  const auto served = static_cast<double>(pool.finish().reads);

  state.SetItemsProcessed(static_cast<int64_t>(2 * graph.size()) *
                          state.iterations());
  state.counters["served"] = served;
  state.counters["served/s"] =
      benchmark::Counter(served, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrentServe)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("readers")
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// BM_SnapshotPublish — per-batch snapshot publish cost as a function of n,
// batch size and graph shape. The base graph is a sea of disjoint
// 16-vertex path clusters; with giant:1, the lower half of the vertices
// is instead one random spanning tree (vertex i attaches to a uniform
// earlier vertex). Each iteration deletes and re-inserts one
// batch: with giant:0 the first `batch` intra-cluster edges, touching
// only the first batch/15-ish clusters; with giant:1 `batch` tree edges
// evenly spaced along the attachment order, so every batch cuts pieces
// off the giant and links them back. The publisher rewrites only the
// labels that change (giant:1: the cut-off pieces, never the giant's own
// tour), so "publish_us/batch" should track the batch size, not n, and
// "full_walks" should not grow past the walks of the set-up inserts.
static void BM_SnapshotPublish(benchmark::State& state) {
  const vertex_id n = vertex_id{1} << state.range(0);
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool giant = state.range(2) != 0;
  constexpr vertex_id kCluster = 16;
  const vertex_id sea = giant ? n / 2 : 0;  // first vertex of the sea

  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  const std::vector<edge> tree =
      giant ? gen_random_tree(sea, 7) : std::vector<edge>{};
  {
    std::vector<edge> es = tree;
    for (vertex_id v = sea; v + 1 < n; ++v)
      if ((v + 1 - sea) % kCluster != 0) es.push_back({v, v + 1});
    for (size_t i = 0; i < es.size(); i += 1u << 16)
      s.batch_insert(std::span<const edge>(es).subspan(
          i, std::min<size_t>(1u << 16, es.size() - i)));
  }
  std::vector<edge> churn;
  if (giant) {
    for (size_t i = 1; i <= batch && i * tree.size() / batch > 0; ++i)
      churn.push_back(tree[i * tree.size() / batch - 1]);
  } else {
    for (vertex_id v = 0; churn.size() < batch && v + 1 < n; ++v)
      if ((v + 1) % kCluster != 0) churn.push_back({v, v + 1});
  }
  const uint64_t warmup_publishes = s.stats().snapshots_published;
  const uint64_t warmup_micros = s.stats().publish_micros;

  for (auto _ : state) {
    s.batch_delete(churn);
    s.batch_insert(churn);
  }

  const auto& st = s.stats();
  const uint64_t publishes = st.snapshots_published - warmup_publishes;
  state.counters["publish_us/batch"] =
      publishes == 0 ? 0.0
                     : static_cast<double>(st.publish_micros -
                                           warmup_micros) /
                           static_cast<double>(publishes);
  state.counters["relabeled"] = static_cast<double>(st.publish_relabeled);
  state.counters["full_walks"] = static_cast<double>(st.publishes_full);
  state.SetItemsProcessed(static_cast<int64_t>(2 * churn.size()) *
                          state.iterations());
}
BENCHMARK(BM_SnapshotPublish)
    ->ArgsProduct({{16, 20}, {64, 256}, {0, 1}})
    ->ArgNames({"logn", "batch", "giant"})
    ->Unit(benchmark::kMillisecond);
