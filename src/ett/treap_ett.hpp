// Euler tour trees over sequence treaps — the treap substrate
// (substrate::treap; paper §2.2; Henzinger-King [27], Miltersen et al.
// [41]).
//
// Each tree's Euler tour is a treap sequence over arc nodes (u,v)/(v,u)
// plus one sentinel node (v,v) per vertex; link/cut are O(lg n) expected
// via split/join, and the treap is augmented with subtree counts of
// vertices and of per-level incident tree/non-tree edge slots (on the
// sentinel nodes) to support the HDT searches.
//
// As an `ett_substrate` model, mutation batches (batch_link / batch_cut /
// batch_add_counts) are parallel join-based bulk operations in the style
// of Blelloch–Ferizovic–Sun joins as used for batch-dynamic trees by Acar
// et al. (2020): a read-only phase finds each touched tour's root, a
// union-find over roots partitions the batch into groups touching disjoint
// tours, and groups proceed concurrently under the scheduler. Within a
// group the affected tours are split once per batch boundary and rebuilt
// with a balanced divide-and-conquer join reduction (fork_join_reduce)
// instead of node-at-a-time merging, so a single giant component also gets
// intra-tour parallelism. New arc priorities are drawn from a counter
// range reserved before the parallel phase, keeping the structure
// deterministic for a given (seed, batch history). Small batches (or a
// 1-worker pool) fall back to the sequential split/merge loop. Read-only
// batch queries (batch_connected, batch_find_rep) fan out across workers,
// since concurrent root walks on an unchanging treap are safe.
//
// The treap forest shares no code with the blocked forest, so the two
// substrates cross-validate each other in the parameterized test and fuzz
// suites; the sequential HDT baseline (`hdt_connectivity`) additionally
// drives the per-edge primitives (link/cut/add_counts/find_*_slot)
// directly.
//
// Node storage comes from the shared per-worker pool (util/node_pool.hpp):
// cut arcs are recycled by later links, and teardown drops whole blocks
// instead of deleting node by node.
//
// Concurrent-read contract: the treap does NOT support relaxed reads
// (connected_relaxed returns nullopt). A find_rep here is a multi-hop
// parent walk, and under a concurrent cut+link batch two walks can
// resolve through a mix of stale and fresh parent pointers to the same
// root, yielding an answer that matches neither the pre- nor the
// post-batch forest. Under the epoch-snapshot serving layer
// (batch_dynamic_connectivity, options::concurrent_reads), treap-backed
// readers are therefore served from the immutable connectivity snapshot
// the service release-publishes at every batch boundary — the batch
// result IS published with one release store (of the snapshot pointer),
// which is the strongest pre-or-post guarantee a pointer-walk structure
// can offer without per-node versioning.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ett/ett_substrate.hpp"
#include "ett/link_partition.hpp"
#include "ett/tour_entry.hpp"
#include "ett/vertex_directory.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "util/node_pool.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {

class treap_ett final {
 public:
  using counts = ett_counts;

  explicit treap_ett(vertex_id n, uint64_t seed = 0x7e47);

  treap_ett(const treap_ett&) = delete;
  treap_ett& operator=(const treap_ett&) = delete;

  [[nodiscard]] size_t num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return arcs_.size(); }

  // ------------------------------------------------------------------
  // Sequential per-edge primitives (the HDT baseline drives these)
  // ------------------------------------------------------------------

  /// Links u and v (must be in different trees).
  void link(vertex_id u, vertex_id v);
  /// Cuts the tree edge (u, v) (must be present).
  void cut(vertex_id u, vertex_id v);

  [[nodiscard]] bool has_edge(vertex_id u, vertex_id v) const {
    return arcs_.contains(edge_key(edge{u, v}.canonical()));
  }
  /// Adjusts v's per-vertex counters along the root path.
  void add_counts(vertex_id v, int32_t tree_delta, int32_t nontree_delta);

  /// Some vertex in v's tree with a nonzero tree (resp. non-tree) counter,
  /// or kNoVertex. O(lg n) expected via augmented descent.
  [[nodiscard]] vertex_id find_tree_slot(vertex_id v) const;
  [[nodiscard]] vertex_id find_nontree_slot(vertex_id v) const;

  // ------------------------------------------------------------------
  // ett_substrate surface
  // ------------------------------------------------------------------

  void batch_link(std::span<const edge> links);
  void batch_cut(std::span<const edge> cuts);
  void batch_add_counts(std::span<const count_delta> deltas);

  [[nodiscard]] bool has_edge(edge e) const {
    return has_edge(e.u, e.v);
  }
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> queries) const;

  [[nodiscard]] ett_rep find_rep(vertex_id v) const;
  [[nodiscard]] std::vector<ett_rep> batch_find_rep(
      std::span<const vertex_id> vs) const;

  [[nodiscard]] ett_counts component_counts(vertex_id v) const;
  [[nodiscard]] uint32_t component_size(vertex_id v) const {
    return component_counts(v).vertices;
  }
  [[nodiscard]] ett_counts vertex_counts(vertex_id v) const;

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_nontree(
      vertex_id v, uint64_t want) const;
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_tree(
      vertex_id v, uint64_t want) const;

  [[nodiscard]] std::vector<vertex_id> component_vertices(
      vertex_id v) const;

  /// In-order walk of the treap rooted at `r` (a representative IS the
  /// root); a tagged singleton rep decodes to its vertex.
  template <typename Fn>
  void for_each_tour_vertex(ett_rep r, Fn&& fn) const {
    if (is_singleton_rep(r)) {
      fn(singleton_rep_vertex(r));
      return;
    }
    std::vector<std::pair<const node*, bool>> stack{
        {static_cast<const node*>(r), false}};
    while (!stack.empty()) {
      auto [x, expanded] = stack.back();
      stack.pop_back();
      if (x == nullptr) continue;
      if (expanded) {
        if (!is_arc_tag(x->tag)) fn(static_cast<vertex_id>(x->tag));
      } else {
        stack.push_back({x->right, false});
        stack.push_back({x, true});
        stack.push_back({x->left, false});
      }
    }
  }

  /// Structural validation (tests): parent/child coherence, heap order,
  /// aggregate sums, tour well-formedness. Empty string if healthy.
  [[nodiscard]] std::string check_consistency() const;

  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return pool_.stats();
  }
  size_t trim_pool(size_t keep_bytes = 0) {
    return pool_.trim(keep_bytes);
  }
  [[nodiscard]] uint64_t active_vertices() const {
    return dir_.active_count();
  }
  [[nodiscard]] size_t directory_bytes() const {
    return dir_.resident_bytes();
  }
  [[nodiscard]] size_t retained_bytes() const {
    return pool_stats().retained_bytes() + dir_.root_bytes();
  }

 private:
  struct node {
    node* parent = nullptr;
    node* left = nullptr;
    node* right = nullptr;
    uint64_t priority = 0;
    uint64_t tag = 0;  // tour entry (ett/tour_entry.hpp): sentinel or arc
    ett_counts own;    // nonzero only on sentinels
    ett_counts agg;    // subtree sum (own + children)
    uint32_t subtree_nodes = 1;
  };
  struct arc_nodes {
    node* fwd = nullptr;
    node* rev = nullptr;
  };

  node* make_node(uint64_t tag);
  /// Pool-allocates a node with an explicit priority (parallel batch paths
  /// draw priorities from a counter range reserved up front, so workers
  /// never touch the shared counter).
  node* make_node_with_priority(uint64_t tag, uint64_t priority);
  void free_node(node* x);

  /// The sentinel node of an active vertex, or nullptr (never touched by
  /// an edge at this level, or reclaimed since).
  [[nodiscard]] node* sentinel(vertex_id v) const {
    node* const* p = dir_.find(v);
    return p == nullptr ? nullptr : *p;
  }
  /// Activates v (building its lone sentinel) on first edge touch.
  /// Sequential-path variant: draws its priority from the shared counter.
  node* ensure_sentinel(vertex_id v);
  /// Parallel-phase variant: the caller reserves a counter range up front
  /// and passes the drawn priority (distinct vertices only, per the batch
  /// partition contract).
  node* ensure_sentinel_with_priority(vertex_id v, uint64_t priority);
  /// Reclaims v's sentinel + slot when its last level-i edge has left
  /// (lone treap root, zero edge counters). Idempotent; call only from
  /// mutation phases, on v's own partition.
  void maybe_release_sentinel(vertex_id v);
  static void update(node* x);
  [[nodiscard]] static node* root_of(node* x);
  /// Merges two treap sequences (all of a before all of b).
  static node* merge(node* a, node* b);
  /// Joins an ordered list of treap segments (nullptr entries allowed) into
  /// one sequence via a balanced divide-and-conquer join reduction.
  static node* join_all(std::span<node* const> segs);
  /// Splits so that x begins the right part. Returns {left, right}.
  static std::pair<node*, node*> split_before(node* x);
  /// Splits so that x ends the left part. Returns {left, right}.
  static std::pair<node*, node*> split_after(node* x);
  /// In-order rank of x within its treap (for arc ordering in cut).
  [[nodiscard]] static size_t rank_of(node* x);
  /// Rotates v's tour so it starts at v's sentinel.
  node* reroot(vertex_id v);

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_counted(
      vertex_id v, uint64_t want, bool nontree) const;

  /// Parallel bulk-mutation internals (see treap_ett.cpp for the phase
  /// structure). Each rebuilds the tours touched by one independent group.
  struct link_group_ctx;
  struct cut_mark;
  void link_group(const link_group_ctx& ctx);
  void cut_tree(std::span<cut_mark> marks);
  /// Batches below this size (or a 1-worker pool) take the sequential
  /// split/merge loop; grouping overhead would dominate.
  static constexpr size_t kParallelMutationCutoff = 16;

  /// Scratch buffers reused across bulk-mutation calls. Mutation phases
  /// are exclusive, so reuse is race-free; a deletion stream that
  /// shatters into thousands of small batches would otherwise pay six
  /// vector allocations per batch (the PR-3 "shattered batch" constant).
  struct mutation_scratch {
    std::vector<node*> root_u, root_v;
    link_partition_scratch<node*> part;
    std::vector<arc_nodes> arcs;
    std::vector<uint64_t> keys;
    std::vector<vertex_id> endpoints;
  };
  mutation_scratch scratch_;

  random rng_;
  uint64_t counter_ = 0;
  vertex_id n_;
  phase_concurrent_map<arc_nodes> arcs_; // per canonical edge
  node_pool pool_;  // declared before dir_: chunks are pool storage
  // Sparse per-vertex state: an active vertex's slot holds its (v,v)
  // sentinel node; tourless vertices rep as singleton_rep(v), so
  // activation/deactivation never moves a representative.
  vertex_directory<node*> dir_;
};

static_assert(ett_substrate<treap_ett>);

}  // namespace bdc
