#include "spanning/union_find.hpp"

#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"

namespace bdc {

concurrent_union_find::concurrent_union_find(size_t n) : parent_(n) {
  // Blocks with a local data pointer: storing through `parent_[i]` makes
  // the compiler reload the vector's data pointer after every atomic
  // store.
  internal::for_each_block(
      n, internal::num_blocks(n), [&](size_t, size_t lo, size_t hi) {
        std::atomic<uint32_t>* parent = parent_.data();
        for (size_t i = lo; i < hi; ++i)
          parent[i].store(static_cast<uint32_t>(i), std::memory_order_relaxed);
      });
}

uint32_t concurrent_union_find::find(uint32_t x) {
  uint32_t p = parent_[x].load(std::memory_order_relaxed);
  while (p != x) {
    uint32_t gp = parent_[p].load(std::memory_order_relaxed);
    if (gp != p) {
      // Path halving; the race is benign (any stale write still points
      // into the same rooted tree).
      parent_[x].compare_exchange_weak(p, gp, std::memory_order_relaxed,
                                       std::memory_order_relaxed);
    }
    x = p;
    p = gp;
  }
  return x;
}

bool concurrent_union_find::unite(uint32_t u, uint32_t v) {
  while (true) {
    uint32_t ru = find(u), rv = find(v);
    if (ru == rv) return false;
    // Deterministic linking rule (larger root under smaller) keeps the
    // structure a forest; CAS arbitrates concurrent linkers.
    if (ru < rv) std::swap(ru, rv);
    uint32_t expected = ru;
    if (parent_[ru].compare_exchange_strong(expected, rv,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return true;
    }
    // Lost the race: some other unite re-rooted ru; retry from the top.
    u = ru;
    v = rv;
  }
}

spanning_forest_result spanning_forest(size_t n,
                                       std::span<const edge> edges) {
  concurrent_union_find uf(n);
  std::vector<uint8_t> chosen(edges.size(), 0);
  parallel_for(0, edges.size(), [&](size_t i) {
    const edge& e = edges[i];
    if (!e.is_self_loop() && uf.unite(e.u, e.v)) chosen[i] = 1;
  });
  spanning_forest_result result;
  auto idx = pack_index(edges.size(), [&](size_t i) { return chosen[i] != 0; });
  result.tree_edge_indices.assign(idx.begin(), idx.end());
  result.labels.resize(n);
  parallel_for(0, n, [&](size_t v) {
    result.labels[v] = uf.find(static_cast<uint32_t>(v));
  });
  return result;
}

std::vector<uint32_t> connected_components(size_t n,
                                           std::span<const edge> edges) {
  concurrent_union_find uf(n);
  parallel_for(0, edges.size(), [&](size_t i) {
    if (!edges[i].is_self_loop()) uf.unite(edges[i].u, edges[i].v);
  });
  std::vector<uint32_t> labels(n);
  parallel_for(0, n, [&](size_t v) {
    labels[v] = uf.find(static_cast<uint32_t>(v));
  });
  return labels;
}

}  // namespace bdc
