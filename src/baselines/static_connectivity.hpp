// Baseline: recompute connectivity from scratch on every batch (paper §1:
// "these algorithms may recompute the connected components of the entire
// graph even for very small batches", costing O(m + n) work per batch).
//
// Maintains only the edge set; every query epoch rebuilds component labels
// with the parallel static connectivity of src/spanning. This is the
// comparator of bench_micro's BM_EpochVsStatic (E7,
// dynamic-vs-static crossover).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "hashtable/phase_concurrent_map.hpp"
#include "util/types.hpp"

namespace bdc {

class static_recompute_connectivity {
 public:
  explicit static_recompute_connectivity(vertex_id n);

  [[nodiscard]] vertex_id num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return edges_.size(); }

  /// Self-loops and edges with an endpoint outside [0, n) are dropped.
  void batch_insert(std::span<const edge> es);
  /// Entries not currently present (including out-of-range ids) are
  /// ignored.
  void batch_delete(std::span<const edge> es);

  // Queries share the structure's phase contract with the dynamic
  // structure: they may run concurrently with each other (the first
  // arrival performs the rebuild under a mutex, the rest wait), but not
  // with batch_insert/batch_delete.
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) const;
  [[nodiscard]] std::vector<vertex_id> components() const;

  /// Number of full recomputes performed (each O(m + n) work).
  [[nodiscard]] uint64_t recomputes() const {
    return recomputes_.load(std::memory_order_relaxed);
  }

 private:
  /// Rebuilds labels if stale and returns them. Double-checked so
  /// concurrent query threads agree on one rebuild instead of racing the
  /// label vector (ISSUE 8 bugfix: the seed mutated labels_/stale_ from
  /// every const query path with no synchronization).
  const std::vector<uint32_t>& refresh() const;

  vertex_id n_;
  phase_concurrent_map<uint8_t> edges_;  // key = canonical edge key
  mutable std::mutex refresh_mutex_;
  mutable std::vector<uint32_t> labels_;
  mutable std::atomic<bool> stale_{true};
  mutable std::atomic<uint64_t> recomputes_{0};
};

}  // namespace bdc
