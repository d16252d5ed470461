// The substrate boundary of the Euler-tour layer.
//
// The paper's HDT hierarchy (§2.2, §3) is agnostic to how each level's
// Euler tours are represented; only a small forest-level contract matters:
// batch link/cut of tree edges, per-vertex counter maintenance with
// component-wide sums, representative and connectivity queries, and the
// first-ℓ fetch primitives of Appendix 9. `ett_substrate` names exactly
// that contract as a C++20 concept, checked at compile time by one
// static_assert after each model; `ett_forest` (ett_forest.hpp) holds one
// model in a std::variant so the level structure and
// `batch_dynamic_connectivity` can select the tour representation at
// runtime (options::substrate), and so substrates can be benchmarked
// head-to-head on identical workloads (bench_substrates).
//
// Two substrates are provided:
//   * substrate::treap   — `treap_ett`, tours over sequence treaps
//     (Henzinger–King style); mutation batches are parallel join-based
//     bulk operations partitioned by tour, read-only batches fan out
//     across workers.
//   * substrate::blocked — `blocked_ett`, tours as circular lists of
//     cache-packed blocks with per-block aggregates and O(1)
//     representative/count queries; the small-component specialist (De
//     Man et al. 2024) and the default, since small components are what
//     most levels of the HDT hierarchy hold.
//
// Phase contract (every substrate): a batch mutation call is one exclusive
// phase; read-only queries (connected / find_rep / counts / fetch) may run
// concurrently with each other but never with a mutation. A mutation batch
// may itself fan work out across the scheduler's workers, so it must be
// issued from a single logical root task, and the batch preconditions
// below (distinct edges, acyclic link batches, present distinct cuts) are
// load-bearing for that internal parallelism — a substrate may partition
// the batch by the tours it touches and mutate those tours concurrently.
//
// Read-side snapshot contract (epoch-based concurrent serving). A
// substrate that supports relaxed reads — only `blocked_ett`, whose read
// path is two acquire loads with no multi-hop walk — additionally offers
// bind_read_epochs(em), after which it must (a) route every free of
// reader-reachable memory through the epoch limbo (node_pool::reclaim,
// drained by drain_limbo()) and (b) publish reader-visible pointer
// updates with release stores so a pinned reader never follows a torn
// path. It answers connected_relaxed with plain acquire loads WHILE a
// mutation batch runs; such an answer is only meaningful after the caller
// revalidates a version/seqlock it brackets around the read (the
// batch_dynamic_connectivity service layer does exactly that and discards
// answers that overlapped a batch). For the treap, concurrent readers
// are served from the service's published immutable snapshot instead —
// a raw concurrent find_rep walk on a pointer structure can
// resolve u via a stale path and v via a fresh one to the same
// representative, producing an answer matching NEITHER the pre- nor the
// post-batch state.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ett/ett_counts.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

/// Which Euler-tour representation backs a forest. Selected per structure
/// at construction (options::substrate).
enum class substrate : uint8_t {
  treap,    // sequence treaps (HDT-style)
  blocked,  // cache-packed block-linked tours (options{} default)
};

[[nodiscard]] const char* to_string(substrate s);
[[nodiscard]] std::optional<substrate> substrate_from_string(
    std::string_view name);

/// Opaque component representative: rep(u) == rep(v) iff u and v are in
/// the same tree. Invalidated by any subsequent batch_link/batch_cut.
using ett_rep = const void*;

// Tagged singleton representatives. A vertex with no incident tree arc at
// this level (its tour is a lone sentinel) reps as the odd value
// (v << 1) | 1 — never a valid node address — in EVERY substrate. This
// makes the rep independent of whether the vertex currently holds a
// directory slot: activation/deactivation (which batch_add_counts may
// perform) never changes any rep, preserving the contract above that only
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

/// The forest-level contract every Euler-tour substrate models.
template <typename F>
concept ett_substrate =
    std::constructible_from<F, vertex_id, uint64_t> &&
    requires(F f, const F cf, edge e, vertex_id v, uint64_t want,
             size_t keep_bytes, ett_rep r, std::span<const edge> es,
             std::span<const count_delta> deltas,
             std::span<const std::pair<vertex_id, vertex_id>> queries,
             std::span<const vertex_id> vs) {
      { cf.num_vertices() } -> std::same_as<size_t>;
      { cf.num_edges() } -> std::same_as<size_t>;

      // Updates (each call is one exclusive mutation phase). batch_link's
      // edges are non-self-loop, distinct as undirected pairs, absent, and
      // keep the forest acyclic (the caller runs a spanning-forest pass
      // first; Algorithms 2, 4, 5 all guarantee this). batch_cut's edges
      // are distinct present tree edges. batch_add_counts takes at most one
      // delta per vertex and repairs the component-wide augmentation.
      f.batch_link(es);
      f.batch_cut(es);
      f.batch_add_counts(deltas);

      // Queries (read-only phases).
      { cf.has_edge(e) } -> std::same_as<bool>;
      { cf.connected(v, v) } -> std::same_as<bool>;
      { cf.batch_connected(queries) } -> std::same_as<std::vector<bool>>;
      { cf.find_rep(v) } -> std::same_as<ett_rep>;
      { cf.batch_find_rep(vs) } -> std::same_as<std::vector<ett_rep>>;
      // Component-wide augmented sums for v's tree, and v's own stored
      // counters (validation).
      { cf.component_counts(v) } -> std::same_as<ett_counts>;
      { cf.vertex_counts(v) } -> std::same_as<ett_counts>;
      // Fetches, in tour order, vertices covering the first `want` incident
      // non-tree (resp. tree) edge slots of v's component. Each result
      // entry (x, c) means "take c edges from x's level-i non-tree (tree)
      // adjacency list". Sum of takes == min(want, component total).
      // (Appendix 9.)
      {
        cf.fetch_nontree(v, want)
      } -> std::same_as<std::vector<std::pair<vertex_id, uint32_t>>>;
      {
        cf.fetch_tree(v, want)
      } -> std::same_as<std::vector<std::pair<vertex_id, uint32_t>>>;
      // All vertices of v's component, in tour order (diagnostics / tests).
      { cf.component_vertices(v) } -> std::same_as<std::vector<vertex_id>>;
      // Invokes fn(v) once per vertex of the component whose
      // representative is `r` (obtained from find_rep / batch_find_rep in
      // the same read phase), in tour order. O(component size): the
      // blocked substrate streams its chain of packed blocks (80, 144,
      // 256 or 512 bytes by size class), the treap walks its tour node by
      // node. This is the enumeration primitive behind incremental
      // snapshot publishing — a touched component can be relabelled
      // without a global O(n) scan.
      cf.for_each_tour_vertex(r, [](vertex_id) {});
      // Deep structural validation (tests). Empty string if healthy.
      { cf.check_consistency() } -> std::same_as<std::string>;

      // Memory accounting. pool_stats/trim_pool require quiescence (no
      // phase in flight); the directory gauges are atomic counters, safe
      // anytime. trim_pool keeps up to `keep_bytes` of spare blocks (see
      // node_pool::trim) and returns the bytes released. directory_bytes
      // is the vertex directory's root table plus its chunks (tour nodes
      // excluded); retained_bytes is everything the forest holds, each
      // byte once: its pool (tour nodes AND directory chunks) plus the
      // directory's root table.
      { cf.pool_stats() } -> std::same_as<node_pool::stats_snapshot>;
      { f.trim_pool(keep_bytes) } -> std::same_as<size_t>;
      { cf.active_vertices() } -> std::same_as<uint64_t>;
      { cf.directory_bytes() } -> std::same_as<size_t>;
      { cf.retained_bytes() } -> std::same_as<size_t>;
    };

}  // namespace bdc
