#include "gen/update_stream.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/random.hpp"

namespace bdc {

void shuffle_edges(std::vector<edge>& es, uint64_t seed) {
  random r(seed);
  for (size_t i = es.size(); i > 1; --i) {
    std::swap(es[i - 1], es[r.ith_rand(i, i)]);
  }
}

update_stream make_insertion_stream(const std::vector<edge>& graph,
                                    size_t batch_size, uint64_t seed) {
  std::vector<edge> es = graph;
  shuffle_edges(es, seed);
  update_stream stream;
  for (size_t lo = 0; lo < es.size(); lo += batch_size) {
    size_t hi = std::min(es.size(), lo + batch_size);
    update_batch b;
    b.op = update_batch::kind::insert;
    b.edges.assign(es.begin() + static_cast<ptrdiff_t>(lo),
                   es.begin() + static_cast<ptrdiff_t>(hi));
    stream.push_back(std::move(b));
  }
  return stream;
}

update_stream make_deletion_stream(const std::vector<edge>& graph,
                                   vertex_id n, size_t insert_batch_size,
                                   size_t delete_batch_size,
                                   size_t queries_per_batch, uint64_t seed) {
  update_stream stream =
      make_insertion_stream(graph, insert_batch_size, seed);
  std::vector<edge> es = graph;
  shuffle_edges(es, hash64(seed + 1));
  random qr(hash64(seed + 2));
  uint64_t qi = 0;
  for (size_t lo = 0; lo < es.size(); lo += delete_batch_size) {
    size_t hi = std::min(es.size(), lo + delete_batch_size);
    update_batch b;
    b.op = update_batch::kind::erase;
    b.edges.assign(es.begin() + static_cast<ptrdiff_t>(lo),
                   es.begin() + static_cast<ptrdiff_t>(hi));
    stream.push_back(std::move(b));
    if (queries_per_batch > 0) {
      update_batch q;
      q.op = update_batch::kind::query;
      q.queries.reserve(queries_per_batch);
      for (size_t j = 0; j < queries_per_batch; ++j) {
        vertex_id a = static_cast<vertex_id>(qr.ith_rand(qi++, n));
        vertex_id b2 = static_cast<vertex_id>(qr.ith_rand(qi++, n));
        q.queries.push_back({a, b2});
      }
      stream.push_back(std::move(q));
    }
  }
  return stream;
}

update_stream make_sliding_window_stream(const std::vector<edge>& graph,
                                         size_t window, size_t batch,
                                         uint64_t seed) {
  std::vector<edge> es = graph;
  shuffle_edges(es, seed);
  update_stream stream;
  size_t head = 0;  // next edge to insert
  size_t tail = 0;  // next edge to delete
  while (head < es.size()) {
    size_t hi = std::min(es.size(), head + batch);
    update_batch ins;
    ins.op = update_batch::kind::insert;
    ins.edges.assign(es.begin() + static_cast<ptrdiff_t>(head),
                     es.begin() + static_cast<ptrdiff_t>(hi));
    stream.push_back(std::move(ins));
    head = hi;
    if (head - tail > window) {
      size_t del_hi = head - window;
      update_batch del;
      del.op = update_batch::kind::erase;
      del.edges.assign(es.begin() + static_cast<ptrdiff_t>(tail),
                       es.begin() + static_cast<ptrdiff_t>(del_hi));
      stream.push_back(std::move(del));
      tail = del_hi;
    }
  }
  return stream;
}

update_stream make_phase_skewed_stream(const std::vector<edge>& graph,
                                       vertex_id n, size_t batch,
                                       size_t flood_batches,
                                       size_t flood_queries, uint64_t seed) {
  std::vector<edge> es = graph;
  shuffle_edges(es, seed);
  batch = std::max<size_t>(1, batch);

  update_stream stream;
  uint64_t qseed = hash64(seed + 0x9e37);
  auto push_queries = [&](size_t k) {
    update_batch q;
    q.op = update_batch::kind::query;
    q.queries = make_query_batch(n, k, qseed++);
    stream.push_back(std::move(q));
  };
  auto push_edges = [&](update_batch::kind op, std::vector<edge> edges) {
    if (edges.empty()) return;
    update_batch b;
    b.op = op;
    b.edges = std::move(edges);
    stream.push_back(std::move(b));
  };

  // Phase 1: insert ramp over ~3/4 of the edges (the rest feed churn).
  size_t reserve_lo = es.size() - es.size() / 4;
  std::vector<edge> alive(es.begin(),
                          es.begin() + static_cast<ptrdiff_t>(reserve_lo));
  size_t ramp_batches = 0;
  for (size_t lo = 0; lo < reserve_lo; lo += batch) {
    size_t hi = std::min(reserve_lo, lo + batch);
    push_edges(update_batch::kind::insert,
               {es.begin() + static_cast<ptrdiff_t>(lo),
                es.begin() + static_cast<ptrdiff_t>(hi)});
    if (++ramp_batches % 2 == 0) push_queries(16);
  }

  // Phase 2: churn. Each round deletes batch/8 random alive edges and
  // inserts batch/8 fresh edges from the reserve.
  random cr(hash64(seed + 0xc0c0));
  uint64_t ci = 0;
  size_t reserve_next = reserve_lo;
  size_t churn = std::max<size_t>(1, batch / 8);
  for (int round = 0; round < 16; ++round) {
    std::vector<edge> dels;
    for (size_t j = 0; j < churn && !alive.empty(); ++j) {
      size_t pick = cr.ith_rand(ci++, alive.size());
      dels.push_back(alive[pick]);
      alive[pick] = alive.back();
      alive.pop_back();
    }
    push_edges(update_batch::kind::erase, std::move(dels));
    std::vector<edge> ins;
    for (size_t j = 0; j < churn && reserve_next < es.size(); ++j) {
      ins.push_back(es[reserve_next]);
      alive.push_back(es[reserve_next]);
      ++reserve_next;
    }
    push_edges(update_batch::kind::insert, std::move(ins));
    push_queries(16);
  }

  // Phase 3: query flood (no updates in between).
  for (size_t i = 0; i < flood_batches; ++i) push_queries(flood_queries);

  // Phase 4: deletion burst — a burst, not a teardown: up to 4 batches of
  // `batch` random alive edges, each followed by a small query batch (the
  // monitoring reads that accompany real churn).
  shuffle_edges(alive, hash64(seed + 0xdead));
  size_t burst = std::min(alive.size(), 4 * batch);
  for (size_t lo = 0; lo < burst; lo += batch) {
    size_t hi = std::min(burst, lo + batch);
    push_edges(update_batch::kind::erase,
               {alive.begin() + static_cast<ptrdiff_t>(lo),
                alive.begin() + static_cast<ptrdiff_t>(hi)});
    push_queries(16);
  }
  push_queries(64);
  return stream;
}

update_stream make_hub_churn_stream(const std::vector<edge>& graph,
                                    vertex_id n, size_t batch,
                                    size_t rounds, uint64_t seed) {
  batch = std::max<size_t>(1, batch);

  // Degree census -> hubs. Sorting by (degree desc, id asc) makes the
  // hub choice independent of the census container's iteration order.
  std::unordered_map<vertex_id, uint32_t> degree;
  for (const edge& e : graph) {
    degree[e.u]++;
    degree[e.v]++;
  }
  std::vector<std::pair<uint32_t, vertex_id>> by_degree;
  by_degree.reserve(degree.size());
  for (const auto& [v, d] : degree) by_degree.push_back({d, v});
  std::sort(by_degree.begin(), by_degree.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::unordered_set<vertex_id> hubs;
  for (size_t i = 0; i < by_degree.size() && hubs.size() < 16; ++i)
    hubs.insert(by_degree[i].second);

  std::vector<edge> hub_edges;
  for (const edge& e : graph)
    if (hubs.contains(e.u) || hubs.contains(e.v)) hub_edges.push_back(e);

  update_stream stream;
  uint64_t qseed = hash64(seed + 0x4b);
  auto push_queries = [&](size_t k) {
    update_batch q;
    q.op = update_batch::kind::query;
    q.queries = make_query_batch(n, k, qseed++);
    stream.push_back(std::move(q));
  };
  auto push_edges = [&](update_batch::kind op,
                        const std::vector<edge>& es, size_t lo, size_t hi) {
    if (lo >= hi) return;
    update_batch b;
    b.op = op;
    b.edges.assign(es.begin() + static_cast<ptrdiff_t>(lo),
                   es.begin() + static_cast<ptrdiff_t>(hi));
    stream.push_back(std::move(b));
  };

  // Insert ramp over the whole base graph.
  std::vector<edge> es = graph;
  shuffle_edges(es, seed);
  size_t ramp_batches = 0;
  for (size_t lo = 0; lo < es.size(); lo += batch) {
    push_edges(update_batch::kind::insert, es, lo,
               std::min(es.size(), lo + batch));
    if (++ramp_batches % 2 == 0) push_queries(16);
  }

  // Churn rounds: delete every hub-incident edge in bursts, then put
  // them back, querying between bursts (the monitoring reads that
  // accompany real churn).
  for (size_t round = 0; round < rounds; ++round) {
    shuffle_edges(hub_edges, hash64(seed + 0xc11 + round));
    for (size_t lo = 0; lo < hub_edges.size(); lo += batch) {
      push_edges(update_batch::kind::erase, hub_edges, lo,
                 std::min(hub_edges.size(), lo + batch));
      push_queries(16);
    }
    for (size_t lo = 0; lo < hub_edges.size(); lo += batch) {
      push_edges(update_batch::kind::insert, hub_edges, lo,
                 std::min(hub_edges.size(), lo + batch));
      push_queries(16);
    }
  }
  push_queries(64);
  return stream;
}

std::vector<std::pair<vertex_id, vertex_id>> make_query_batch(
    vertex_id n, size_t k, uint64_t seed) {
  random r(seed);
  std::vector<std::pair<vertex_id, vertex_id>> qs(k);
  for (size_t i = 0; i < k; ++i) {
    qs[i] = {static_cast<vertex_id>(r.ith_rand(2 * i, n)),
             static_cast<vertex_id>(r.ith_rand(2 * i + 1, n))};
  }
  return qs;
}

}  // namespace bdc
