// Baseline: work-efficient parallel incremental (insertion-only) batch
// connectivity via concurrent union-find, after Simsiri, Tangwongsan,
// Tirthapura, Wu (Euro-Par 2016) [57]. Supports batch insertions and batch
// queries only — the restricted setting the paper's introduction contrasts
// against. Serves as the insert-only engine behind engine_router
// (src/core/engine_router.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hashtable/phase_concurrent_map.hpp"
#include "spanning/union_find.hpp"
#include "util/types.hpp"

namespace bdc {

class incremental_connectivity {
 public:
  explicit incremental_connectivity(vertex_id n) : uf_(n), edges_(64) {}

  [[nodiscard]] size_t num_vertices() const { return uf_.size(); }
  /// Distinct edges actually present. Self-loops, duplicates within a
  /// batch, re-insertions, and out-of-range endpoints do not count —
  /// mirrors the dynamic structure's set-semantics accounting (ISSUE 8
  /// bugfix: the seed added es.size() wholesale).
  [[nodiscard]] size_t num_edges() const { return edges_.size(); }

  /// O(k α(n)) expected work for a batch of k insertions. Self-loops and
  /// edges with an endpoint outside [0, n) are dropped.
  void batch_insert(std::span<const edge> es);

  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const {
    if (u >= num_vertices() || v >= num_vertices()) return false;
    // find() path-halves, so the handle is morally const.
    return const_cast<concurrent_union_find&>(uf_).find(u) ==
           const_cast<concurrent_union_find&>(uf_).find(v);
  }
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) const;

  /// Component labels: labels[v] == labels[u] iff connected; the label is
  /// the smallest vertex id in the component (the dynamic structure's
  /// labelling contract).
  [[nodiscard]] std::vector<vertex_id> components() const;

  [[nodiscard]] bool has_edge(edge e) const {
    edge c = e.canonical();
    if (c.is_self_loop() || c.v >= num_vertices()) return false;
    return edges_.contains(edge_key(c));
  }
  /// Snapshot of the present edge set, canonical form, unspecified order.
  /// Used by engine_router's one-shot promotion bulk load.
  [[nodiscard]] std::vector<edge> edge_list() const;

 private:
  concurrent_union_find uf_;
  phase_concurrent_map<uint8_t> edges_;  // key = canonical edge key
};

}  // namespace bdc
