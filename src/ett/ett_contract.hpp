// The contract of the Euler-tour layer: the values every level's forest
// (blocked_ett, ett/blocked_ett.hpp) trades with the HDT hierarchy, and
// the phase rules its batch surface obeys.
//
// The paper's HDT hierarchy (§2.2, §3) only needs a small forest-level
// contract from its Euler tours: batch link/cut of tree edges, per-vertex
// counter maintenance with component-wide sums, representative and
// connectivity queries, and the first-ℓ fetch primitives of Appendix 9.
//
// Phase contract: a batch mutation call is one exclusive phase; read-only
// queries (connected / find_rep / counts / fetch) may run concurrently
// with each other but never with a mutation. A mutation batch may itself
// fan work out across the scheduler's workers, so it must be issued from
// a single logical root task, and the batch preconditions (distinct
// edges, acyclic link batches, present distinct cuts) are load-bearing
// for that internal parallelism — the forest partitions the batch by the
// tours it touches and mutates those tours concurrently. Reads served
// while a batch runs never touch a forest: they answer from the snapshot
// batch_dynamic_connectivity publishes after each batch.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace bdc {

/// The augmented value carried by every tour (paper §2.2 "Implementation
/// and Cost" and Appendix 9): per-component counts of vertices, of
/// incident tree edges whose level equals the forest's level, and of
/// incident non-tree edges at that level. Edge counts are maintained on
/// vertices (mirroring the adjacency lists), so each edge is counted once
/// per endpoint, i.e. twice per component.
struct ett_counts {
  uint32_t vertices = 0;
  uint32_t tree_edges = 0;     // level-i tree edges incident, by endpoint
  uint32_t nontree_edges = 0;  // level-i non-tree edges incident, by endpoint

  friend ett_counts operator+(const ett_counts& a, const ett_counts& b) {
    return {a.vertices + b.vertices, a.tree_edges + b.tree_edges,
            a.nontree_edges + b.nontree_edges};
  }
  /// Componentwise difference; the caller guarantees a >= b (used when a
  /// tour split carves a sub-tour's aggregate out of its parent's).
  friend ett_counts operator-(const ett_counts& a, const ett_counts& b) {
    return {a.vertices - b.vertices, a.tree_edges - b.tree_edges,
            a.nontree_edges - b.nontree_edges};
  }
  friend bool operator==(const ett_counts&, const ett_counts&) = default;
};

/// The tree or non-tree slot total of a counter set (the HDT fetch and
/// search primitives are parameterized on which kind they walk).
[[nodiscard]] constexpr uint64_t slot_count(const ett_counts& c,
                                            bool nontree) {
  return nontree ? c.nontree_edges : c.tree_edges;
}

/// Opaque component representative: rep(u) == rep(v) iff u and v are in
/// the same tree. Invalidated by any subsequent batch_link/batch_cut.
using ett_rep = const void*;

// Tagged singleton representatives. A vertex with no incident tree arc at
// this level (its tour is a lone sentinel) reps as the odd value
// (v << 1) | 1 — never a valid node address. This makes the rep
// independent of whether the vertex currently holds a directory slot:
// activation/deactivation (which batch_add_counts may perform) never
// changes any rep, preserving the contract above that only
// batch_link/batch_cut invalidate representatives.
[[nodiscard]] inline ett_rep singleton_rep(vertex_id v) {
  return reinterpret_cast<ett_rep>((static_cast<uintptr_t>(v) << 1) | 1u);
}
[[nodiscard]] inline bool is_singleton_rep(ett_rep r) {
  return (reinterpret_cast<uintptr_t>(r) & 1u) != 0;
}
[[nodiscard]] inline vertex_id singleton_rep_vertex(ett_rep r) {
  return static_cast<vertex_id>(reinterpret_cast<uintptr_t>(r) >> 1);
}

/// Adds (tree_delta, nontree_delta) to a vertex's incident-edge counters.
struct count_delta {
  vertex_id v;
  int32_t tree_delta;
  int32_t nontree_delta;
};

}  // namespace bdc
