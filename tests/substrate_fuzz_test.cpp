// Differential fuzz suite for the Euler-tour forest and the structure
// built on it.
//
//   * OracleLockstep — long randomized mixed link/cut/count/query streams
//     are driven directly against blocked_ett; every round's query batch,
//     edge count and sampled component sizes are verified against the
//     stream oracle of the current tree-edge set (gen/replay_oracle.hpp),
//     a sequential union-find that shares no code with the forest, so an
//     oracle bug cannot track a forest bug.
//   * BdcDifferential — batch_dynamic_connectivity end-to-end (inserts
//     and deletes with non-tree edges, replacement searches, level
//     pushes) in lockstep with the same stream oracle. The
//     structure runs with the read service on, and after every committed
//     batch the incrementally published snapshot is compared against a
//     from-scratch components() walk. The adaptive engine_router rides
//     along as one more lockstep structure, so its union-find epoch and
//     one-shot promotion face the same adversarial streams as the fixed
//     engine.
//
// The grid is {workers: 1, 2, hardware} x {batch size}, and
// every stream seed is a deterministic function of those parameters, so a
// failure's SCOPED_TRACE line is a one-line repro: rerun that exact test
// name. The sweep is widened in CI (and locally) through two environment
// knobs:
//
//   BDC_FUZZ_ROUNDS  rounds per stream        (default 25)
//   BDC_FUZZ_SEEDS   streams per parameter set (default 2)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "ett/blocked_ett.hpp"
#include "gen/replay_oracle.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::worker_pool_guard;
using ::bdc::testing::workers_name;

int env_knob(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

int fuzz_rounds() { return env_knob("BDC_FUZZ_ROUNDS", 25); }
int fuzz_seeds() { return env_knob("BDC_FUZZ_SEEDS", 2); }

struct fuzz_params {
  unsigned workers;   // 0 = the default (hardware) pool
  size_t batch;
};

// One mutation/query round state: the present tree edges (and the oracle
// of the forest they form) plus generators.
struct stream_state {
  vertex_id n;
  random_stream rs;
  std::set<std::pair<vertex_id, vertex_id>> present;
  stream_oracle forest;

  explicit stream_state(vertex_id n_, uint64_t seed)
      : n(n_), rs(seed), forest(n_) {}

  // A batch of links that is acyclic against the current forest AND within
  // itself, never already present, no self loops — the batch_link
  // preconditions the level structure guarantees in production.
  std::vector<edge> next_links(size_t want) {
    std::vector<edge> links;
    for (size_t t = 0; t < 20 * want && links.size() < want; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v || forest.connected(u, v)) continue;
      links.push_back({u, v});
      forest.insert({&links.back(), 1});
      present.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
    }
    return links;
  }

  // A batch of distinct present tree edges (partial Fisher–Yates sample).
  std::vector<edge> next_cuts(size_t want) {
    std::vector<std::pair<vertex_id, vertex_id>> pool(present.begin(),
                                                      present.end());
    size_t take = std::min(want, pool.size());
    std::vector<edge> cuts;
    for (size_t i = 0; i < take; ++i) {
      size_t j = i + static_cast<size_t>(rs.next(pool.size() - i));
      std::swap(pool[i], pool[j]);
      cuts.push_back({pool[i].first, pool[i].second});
      present.erase(pool[i]);
    }
    forest.erase(cuts);
    return cuts;
  }

  std::vector<std::pair<vertex_id, vertex_id>> next_queries(size_t count) {
    std::vector<std::pair<vertex_id, vertex_id>> qs(count);
    for (auto& q : qs)
      q = {static_cast<vertex_id>(rs.next(n)),
           static_cast<vertex_id>(rs.next(n))};
    return qs;
  }
};

vertex_id n_for_batch(size_t batch) {
  size_t n = 8 * batch;
  return static_cast<vertex_id>(std::min<size_t>(std::max<size_t>(n, 128),
                                                 4096));
}

// ---------------------------------------------------------------------
// The stream oracle in lockstep.
// ---------------------------------------------------------------------

class OracleLockstep : public ::testing::TestWithParam<fuzz_params> {};

/// Mixed into every stream seed of the OracleLockstep grid.
constexpr uint64_t kStreamSalt = 2;

TEST_P(OracleLockstep, MixedStream) {
  const fuzz_params p = GetParam();
  worker_pool_guard pool(p.workers);
  const vertex_id n = n_for_batch(p.batch);
  const int rounds = fuzz_rounds();
  for (int s = 0; s < fuzz_seeds(); ++s) {
    uint64_t seed =
        hash_combine(hash_combine(kStreamSalt, p.workers * 131 + 7),
                     p.batch * 1009 + static_cast<uint64_t>(s));
    SCOPED_TRACE("repro: workers=" + workers_name(p.workers) +
                 " batch=" + std::to_string(p.batch) +
                 " seed_index=" + std::to_string(s) + " stream_seed=" +
                 std::to_string(seed) +
                 " (widen with BDC_FUZZ_SEEDS / BDC_FUZZ_ROUNDS)");
    blocked_ett f(n);
    stream_state st(n, seed);
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Mutate: a link batch, then (on alternating rounds, so the forest
      // grows as well as churns) a cut batch.
      auto links = st.next_links(1 + st.rs.next(p.batch));
      f.batch_link(links);
      ASSERT_EQ(f.check_consistency(), "") << "after batch_link";
      if (round % 2 == 1) {
        auto cuts = st.next_cuts(1 + st.rs.next(p.batch));
        f.batch_cut(cuts);
        ASSERT_EQ(f.check_consistency(), "") << "after batch_cut";
      }
      ASSERT_EQ(f.num_edges(), st.present.size());

      // Counter churn: push per-vertex non-tree counts up, verify the
      // component sums and the fetch contract, then restore to zero.
      std::vector<count_delta> up;
      for (vertex_id v = 0; v < n; v += 1 + n / 64) up.push_back({v, 0, 3});
      f.batch_add_counts(up);
      ASSERT_EQ(f.check_consistency(), "") << "after batch_add_counts";

      // The oracle: query agreement + component sizes.
      auto qs = st.next_queries(2 * p.batch + 16);
      for (auto [u, v] : qs) {
        ASSERT_EQ(f.connected(u, v), st.forest.connected(u, v))
            << "query " << u << "," << v;
      }
      const std::vector<vertex_id>& labels = st.forest.labels();
      std::vector<uint32_t> comp_size(n, 0);
      for (vertex_id v = 0; v < n; ++v) ++comp_size[labels[v]];
      for (int probe = 0; probe < 8; ++probe) {
        vertex_id v = static_cast<vertex_id>(st.rs.next(n));
        auto cc = f.component_counts(v);
        ASSERT_EQ(cc.vertices, comp_size[labels[v]]) << "vertex " << v;
        // Every sampled vertex in this component contributes 3 non-tree
        // slots; fetch must surface exactly min(want, total).
        auto fetched = f.fetch_nontree(v, cc.nontree_edges + 10);
        uint64_t sum = 0;
        for (const auto& [x, take] : fetched) {
          ASSERT_TRUE(st.forest.connected(v, x));
          sum += take;
        }
        ASSERT_EQ(sum, cc.nontree_edges);
      }
      for (auto& d : up) d.nontree_delta = -d.nontree_delta;
      f.batch_add_counts(up);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleLockstep,
    ::testing::Values(fuzz_params{1, 4}, fuzz_params{1, 32},
                      fuzz_params{1, 64}, fuzz_params{1, 256},
                      fuzz_params{2, 32}, fuzz_params{2, 64},
                      fuzz_params{2, 256}, fuzz_params{0, 32},
                      fuzz_params{0, 64}, fuzz_params{0, 256}),
    [](const ::testing::TestParamInfo<fuzz_params>& info) {
      return "blocked_w" + workers_name(info.param.workers) + "_b" +
             std::to_string(info.param.batch);
    });

// ---------------------------------------------------------------------
// End-to-end differential: batch_dynamic_connectivity and the router on
// one insert/delete/query stream WITH non-tree edges — so replacement
// searches, level pushes, and promotions all run. The oracle is a
// union-find rebuilt from scratch each round.
//
// The stream is materialized up front (its generation never depends on
// structure responses), so when a run trips, the failing batch list is
// DELTA-DEBUGGED to a minimal repro — first bisecting away whole
// batches, then ops within the surviving batches — and printed in the
// stream-file format stream_runner replays (the repro recipe format the
// README documents).
// ---------------------------------------------------------------------

struct bdc_batch {
  enum class kind : uint8_t { insert, erase, query };
  kind op;
  std::vector<edge> edges;                                // insert/erase
  std::vector<std::pair<vertex_id, vertex_id>> queries;   // query
};
using bdc_stream = std::vector<bdc_batch>;

bdc_stream make_bdc_stream(vertex_id n, uint64_t seed, size_t batch,
                           int rounds) {
  random_stream rs(seed);
  std::set<std::pair<vertex_id, vertex_id>> present;
  bdc_stream stream;
  for (int round = 0; round < rounds; ++round) {
    // Insertion batch: arbitrary edges (non-tree edges arise freely),
    // plus deliberate garbage (duplicates, self loops).
    bdc_batch ins{bdc_batch::kind::insert, {}, {}};
    size_t ni = 1 + static_cast<size_t>(rs.next(batch));
    for (size_t t = 0; t < ni; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.edges.push_back({u, v});
      if (rs.next(8) == 0) ins.edges.push_back({v, u});
    }
    for (auto e : ins.edges)
      if (!e.is_self_loop())
        present.insert({e.canonical().u, e.canonical().v});
    stream.push_back(std::move(ins));

    // Deletion batch: a random subset of present edges (tree and
    // non-tree alike) plus a mostly-absent probe.
    if (round % 2 == 1) {
      bdc_batch del{bdc_batch::kind::erase, {}, {}};
      for (auto& pe : present)
        if (rs.next(100) < 35) del.edges.push_back({pe.first, pe.second});
      del.edges.push_back({static_cast<vertex_id>(rs.next(n)),
                           static_cast<vertex_id>(rs.next(n))});
      for (auto& e : del.edges)
        present.erase({e.canonical().u, e.canonical().v});
      stream.push_back(std::move(del));
    }

    bdc_batch qry{bdc_batch::kind::query, {}, {}};
    qry.queries.resize(2 * batch + 16);
    for (auto& q : qry.queries)
      q = {static_cast<vertex_id>(rs.next(n)),
           static_cast<vertex_id>(rs.next(n))};
    stream.push_back(std::move(qry));
  }
  return stream;
}

/// Replays `stream` through batch_dynamic_connectivity and the adaptive
/// router in lockstep with the stream oracle. Returns ""
/// when clean, else a description of the first divergence. `thorough`
/// validates invariants after every batch (used while minimizing, so the
/// repro shrinks to the earliest corrupting batch rather than the query
/// that noticed it); the wide sweep checks every 10th batch.
std::string replay_bdc(vertex_id n, const bdc_stream& stream,
                       bool thorough) {
  // The read service runs too, so each committed batch exercises the
  // incremental snapshot publisher.
  options o;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  engine_router router(n);
  stream_oracle oracle(n);
  auto check_all = [&](size_t bi) -> std::string {
    if (dc.num_edges() != oracle.num_edges())
      return "dynamic: edge count " + std::to_string(dc.num_edges()) +
             " != oracle " + std::to_string(oracle.num_edges()) +
             " after batch " + std::to_string(bi);
    auto rep = dc.check_invariants();
    if (!rep.ok)
      return "dynamic: " + rep.message + " after batch " +
             std::to_string(bi);
    if (router.num_edges() != oracle.num_edges())
      return "router: edge count " + std::to_string(router.num_edges()) +
             " != oracle " + std::to_string(oracle.num_edges()) +
             " after batch " + std::to_string(bi);
    if (router.stats().promotions > 1)
      return "router: promoted " + std::to_string(router.stats().promotions) +
             " times (must be one-shot)";
    return "";
  };
  // The incremental publisher's differential: after EVERY committed
  // batch, the published snapshot's labels must equal a from-scratch
  // components() walk. A divergence here means the touched-seed
  // collection missed a component whose membership changed.
  auto check_snapshot = [&](size_t bi) -> std::string {
    if (dc.snapshot_query().components() != dc.components())
      return "dynamic: published snapshot labels diverge from a "
             "from-scratch components() walk after batch " +
             std::to_string(bi);
    return "";
  };
  for (size_t bi = 0; bi < stream.size(); ++bi) {
    const bdc_batch& b = stream[bi];
    switch (b.op) {
      case bdc_batch::kind::insert:
        dc.batch_insert(b.edges);
        router.batch_insert(b.edges);
        oracle.insert(b.edges);
        if (auto err = check_snapshot(bi); !err.empty()) return err;
        break;
      case bdc_batch::kind::erase:
        dc.batch_delete(b.edges);
        router.batch_delete(b.edges);
        oracle.erase(b.edges);
        if (auto err = check_snapshot(bi); !err.empty()) return err;
        break;
      case bdc_batch::kind::query: {
        auto check_queries =
            [&](const std::vector<bool>& got,
                const std::string& who) -> std::string {
          for (size_t q = 0; q < b.queries.size(); ++q) {
            bool want =
                oracle.connected(b.queries[q].first, b.queries[q].second);
            if (got[q] != want)
              return who + ": query (" +
                     std::to_string(b.queries[q].first) + "," +
                     std::to_string(b.queries[q].second) + ") -> " +
                     (got[q] ? "true" : "false") + ", oracle says " +
                     (want ? "true" : "false") + " at batch " +
                     std::to_string(bi);
          }
          return "";
        };
        if (auto err = check_queries(dc.batch_connected(b.queries),
                                     "dynamic");
            !err.empty())
          return err;
        if (auto err = check_queries(router.batch_connected(b.queries),
                                     "router");
            !err.empty())
          return err;
        break;
      }
    }
    if (thorough || (bi % 10 == 9) || bi == stream.size() - 1) {
      if (auto err = check_all(bi); !err.empty()) return err;
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Delta debugging (ddmin-style): repeatedly try dropping chunks of the
// item list, halving the chunk size, until no single item can go.
// `fails(candidate)` must be deterministic.
// ---------------------------------------------------------------------

template <typename T, typename Fails>
std::vector<T> ddmin(std::vector<T> items, const Fails& fails) {
  size_t chunk = std::max<size_t>(1, items.size() / 2);
  while (true) {
    bool removed = false;
    for (size_t start = 0; start < items.size() && items.size() > 1;) {
      size_t end = std::min(items.size(), start + chunk);
      std::vector<T> cand;
      cand.reserve(items.size() - (end - start));
      cand.insert(cand.end(), items.begin(),
                  items.begin() + static_cast<ptrdiff_t>(start));
      cand.insert(cand.end(), items.begin() + static_cast<ptrdiff_t>(end),
                  items.end());
      if (!cand.empty() && fails(cand)) {
        items = std::move(cand);
        removed = true;  // the next chunk slid into `start`
      } else {
        start = end;
      }
    }
    if (chunk > 1) {
      chunk /= 2;
    } else if (!removed) {
      break;  // fixpoint at single-item granularity
    }
  }
  return items;
}

/// Shrinks a failing stream: bisect the batch list first, then the ops
/// inside each surviving batch.
bdc_stream minimize_bdc_stream(
    bdc_stream stream,
    const std::function<bool(const bdc_stream&)>& fails) {
  stream = ddmin(std::move(stream), fails);
  for (size_t bi = 0; bi < stream.size(); ++bi) {
    if (stream[bi].op == bdc_batch::kind::query) {
      stream[bi].queries = ddmin(
          stream[bi].queries,
          [&](const std::vector<std::pair<vertex_id, vertex_id>>& qs) {
            bdc_stream cand = stream;
            cand[bi].queries = qs;
            return fails(cand);
          });
    } else {
      stream[bi].edges =
          ddmin(stream[bi].edges, [&](const std::vector<edge>& es) {
            bdc_stream cand = stream;
            cand[bi].edges = es;
            return fails(cand);
          });
    }
  }
  // One more batch-level pass: op-level shrinking often makes whole
  // batches droppable.
  return ddmin(std::move(stream), fails);
}

/// Prints a minimized stream in the stream_runner file format, ready to
/// save and replay: `stream_runner run --engine=dynamic repro.stream`.
void print_bdc_repro(vertex_id n, const bdc_stream& stream) {
  std::printf(
      "=== minimized repro (save as repro.stream; replay with\n"
      "    stream_runner run --engine=dynamic repro.stream) ===\n");
  std::printf("n %u\n", n);
  for (const bdc_batch& b : stream) {
    switch (b.op) {
      case bdc_batch::kind::insert:
      case bdc_batch::kind::erase:
        std::printf("%c", b.op == bdc_batch::kind::insert ? 'I' : 'D');
        for (const edge& e : b.edges) std::printf(" %u %u", e.u, e.v);
        break;
      case bdc_batch::kind::query:
        std::printf("Q");
        for (auto& [u, v] : b.queries) std::printf(" %u %u", u, v);
        break;
    }
    std::printf("\n");
  }
  std::printf("=== end minimized repro ===\n");
}

// ---------------------------------------------------------------------
// The minimizer machinery itself is unit-tested with synthetic failure
// predicates (a real structure divergence would need a planted bug).
// ---------------------------------------------------------------------

TEST(DeltaDebug, DdminShrinksToCore) {
  // "Fails" iff the list still holds both 3 and 7: the 1-minimal result
  // is exactly {3, 7}, order preserved.
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto fails = [](const std::vector<int>& v) {
    bool a = false, b = false;
    for (int x : v) {
      a |= (x == 3);
      b |= (x == 7);
    }
    return a && b;
  };
  EXPECT_EQ(ddmin(items, fails), (std::vector<int>{3, 7}));
  // A single-item core shrinks to one element.
  auto has5 = [](const std::vector<int>& v) {
    for (int x : v)
      if (x == 5) return true;
    return false;
  };
  EXPECT_EQ(ddmin(items, has5), (std::vector<int>{5}));
}

TEST(DeltaDebug, MinimizerShrinksStreamsBatchAndOpLevel) {
  // Synthetic trigger: the stream fails iff some insert batch still
  // carries edge (1,2) AND some query batch still carries query (1,2).
  // Minimal: two batches of one op each, order preserved.
  bdc_stream stream = make_bdc_stream(64, 0x5eed, 8, 6);
  stream[1].op = bdc_batch::kind::insert;
  stream[1].queries.clear();
  stream[1].edges = {{9, 10}, {1, 2}, {11, 12}};
  bool planted_query = false;
  for (auto& b : stream) {
    if (b.op == bdc_batch::kind::query && !planted_query) {
      b.queries.push_back({1, 2});
      planted_query = true;
    }
  }
  ASSERT_TRUE(planted_query);
  auto fails = [](const bdc_stream& s) {
    bool ins = false, qry = false;
    for (const bdc_batch& b : s) {
      if (b.op == bdc_batch::kind::insert) {
        for (const edge& e : b.edges) ins |= (e == edge{1, 2});
      } else if (b.op == bdc_batch::kind::query) {
        for (auto& q : b.queries)
          qry |= (q == std::pair<vertex_id, vertex_id>{1, 2});
      }
    }
    return ins && qry;
  };
  ASSERT_TRUE(fails(stream));
  bdc_stream minimal = minimize_bdc_stream(stream, fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].op, bdc_batch::kind::insert);
  EXPECT_EQ(minimal[0].edges, (std::vector<edge>{{1, 2}}));
  EXPECT_EQ(minimal[1].op, bdc_batch::kind::query);
  ASSERT_EQ(minimal[1].queries.size(), 1u);
  EXPECT_EQ(minimal[1].queries[0],
            (std::pair<vertex_id, vertex_id>{1, 2}));
}

class BdcDifferential
    : public ::testing::TestWithParam<std::pair<unsigned, size_t>> {};

TEST_P(BdcDifferential, EndToEndMixedStream) {
  const auto [workers, batch] = GetParam();
  worker_pool_guard pool(workers);
  const vertex_id n = n_for_batch(batch) / 2;
  const int rounds = fuzz_rounds();
  for (int s = 0; s < fuzz_seeds(); ++s) {
    uint64_t seed = hash_combine(workers * 613 + 5, batch * 89 + 17) +
                    static_cast<uint64_t>(s);
    SCOPED_TRACE("repro: bdc workers=" + workers_name(workers) +
                 " batch=" + std::to_string(batch) + " seed_index=" +
                 std::to_string(s) + " stream_seed=" + std::to_string(seed) +
                 " (widen with BDC_FUZZ_SEEDS / BDC_FUZZ_ROUNDS)");
    bdc_stream stream = make_bdc_stream(n, seed, batch, rounds);
    std::string err = replay_bdc(n, stream, /*thorough=*/false);
    if (err.empty()) continue;
    // Trip: shrink the batch list to a minimal repro before failing, so
    // the nightly log carries a ready-to-replay stream file instead of
    // only a seed.
    auto fails = [&](const bdc_stream& cand) {
      return !replay_bdc(n, cand, /*thorough=*/true).empty();
    };
    bdc_stream minimal = minimize_bdc_stream(stream, fails);
    print_bdc_repro(n, minimal);
    std::string minimal_err = replay_bdc(n, minimal, true);
    FAIL() << err << "\nminimized to " << minimal.size()
           << " batches (printed above), failing with: " << minimal_err;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BdcDifferential,
    ::testing::Values(std::pair<unsigned, size_t>{1, 16},
                      std::pair<unsigned, size_t>{1, 96},
                      std::pair<unsigned, size_t>{2, 48},
                      std::pair<unsigned, size_t>{2, 192},
                      std::pair<unsigned, size_t>{0, 16},
                      std::pair<unsigned, size_t>{0, 48},
                      std::pair<unsigned, size_t>{0, 96}),
    [](const ::testing::TestParamInfo<std::pair<unsigned, size_t>>& info) {
      return "w" + workers_name(info.param.first) + "_b" +
             std::to_string(info.param.second);
    });

}  // namespace
}  // namespace bdc
