// Cache-packed block-linked Euler tours — the forest behind every level
// of the HDT hierarchy (De Man, Łącki & Dhulipala 2024 report
// sequence-compressed / block-linked tour representations winning
// decisively at small component sizes, which is exactly the regime the
// HDT hierarchy's low levels live in). Its value types and phase rules
// are in ett/ett_contract.hpp.
//
// Each tree's Euler tour is a CIRCULAR doubly-linked list of blocks; a
// block packs up to kBlockCap 8-byte tour entries (one sentinel per
// vertex, one entry per directed arc of each tree edge) contiguously,
// so walking a tour is a streaming scan instead of a pointer chase per
// element. Every block carries the aggregate HDT counters of the
// sentinels it holds, and a per-tour descriptor carries the
// component-wide sums — so `find_rep`, `connected`, `component_counts`
// and `batch_add_counts` are all O(1) per element, and the first-ℓ
// fetch walk prunes whole blocks by their aggregates.
//
// Block sizes: a tour that fits one block holds the smallest size class
// (kClassCaps) that fits its entries, so a 2-vertex tree's 4 entries take
// an 80-byte block, not a 512-byte one; a link that outgrows the class
// moves the tour into the next one, and a cut that shrinks a one-block
// tour moves it back down. Only one-block tours hold short blocks: every
// block of a multi-block tour is full size (512 bytes), so splits, seams
// and rebalancing never see a short block.
//
// Mutations are splice-based. A link or cut inside a one-block tour
// rewrites that block's entries in place (or into a block of the new
// size class). Otherwise `link` splits at most three blocks (after the
// host's sentinel, before the guest's sentinel) and splices the guest's
// block chain plus two packed arc entries into the host's cycle,
// relabelling only the smaller side's blocks; `cut` isolates the edge's
// two arcs at block boundaries, re-closes the two halves of the cycle
// into separate tours, and walks both in lockstep so that the side that
// closes first (the one with fewer blocks) takes the new descriptor while
// the larger side keeps the old one. B-tree-style local rebalancing
// (merge or borrow from the successor block) restores the occupancy
// invariant — every block of a multi-block tour holds at least kMinFill
// entries — so tours stay packed under arbitrary link/cut churn. The
// price of O(1) queries is that merging or splitting a tour relabels the
// smaller side's block owners, i.e. O(min side / B) per mutation
// (counted by the `ett.relabeled_blocks` telemetry counter); on the small
// components that dominate every level below the top, this linear term
// is cheap.
//
// Batch mutations run in phases: a read-only phase resolves every
// touched tour, the batch is partitioned into groups touching disjoint
// tours, and groups proceed concurrently under the scheduler (arc-map
// writes stay phase-safe: placeholders are inserted up front, groups only
// update values of their own keys). Read-only batch queries fan out
// across workers unconditionally.
//
// Blocks and tour descriptors come from the shared per-worker pool
// (util/node_pool.hpp): cut blocks are recycled by later links, and an
// emptied forest can return every block to the OS via trim_pool().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ett/ett_contract.hpp"
#include "ett/tour_entry.hpp"
#include "ett/vertex_directory.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

class blocked_ett final {
 public:
  /// Entries per block: sized so one block (header + payload) is 512
  /// bytes — eight cache lines the hardware prefetcher streams through.
  static constexpr uint32_t kBlockCap = 59;
  /// Occupancy floor for blocks of multi-block tours; single-block tours
  /// are exempt (a 2-vertex tree has only 4 entries).
  static constexpr uint32_t kMinFill = kBlockCap / 4;
  /// Block header (links, owner, count/cap, aggregate) ahead of the tags.
  static constexpr size_t kBlockHeaderBytes = 40;
  /// Entry capacities of the block size classes, smallest first. Each
  /// fills a node_pool size class exactly (80, 144, 256 and 512 bytes)
  /// and roughly doubles the one before, so a tour grown one link at a
  /// time is copied O(1) times per entry. Only single-block tours hold a
  /// class below kBlockCap.
  static constexpr uint32_t kClassCaps[] = {5, 13, 27, kBlockCap};

  /// Bytes of a block holding up to `cap` entries.
  [[nodiscard]] static constexpr size_t block_bytes(uint32_t cap) {
    return kBlockHeaderBytes + size_t{cap} * sizeof(uint64_t);
  }
  /// The smallest class capacity that holds `entries` (<= kBlockCap).
  [[nodiscard]] static constexpr uint32_t class_cap(uint64_t entries) {
    for (uint32_t c : kClassCaps)
      if (entries <= c) return c;
    return kBlockCap;
  }

  explicit blocked_ett(vertex_id n);

  blocked_ett(const blocked_ett&) = delete;
  blocked_ett& operator=(const blocked_ett&) = delete;

  [[nodiscard]] size_t num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return arcs_.size(); }

  // Updates (each call is one exclusive mutation phase; a non-empty call
  // records an `ett.batch_link` / `ett.batch_cut` / `ett.batch_add_counts`
  // phase span). batch_link's edges are non-self-loop, distinct as
  // undirected pairs, absent, and keep the forest acyclic (the caller runs
  // a spanning-forest pass first; Algorithms 2, 4, 5 all guarantee this).
  // batch_cut's edges are distinct present tree edges. batch_add_counts
  // takes at most one delta per vertex and repairs the component-wide
  // augmentation.
  void batch_link(std::span<const edge> links);
  void batch_cut(std::span<const edge> cuts);
  void batch_add_counts(std::span<const count_delta> deltas);

  [[nodiscard]] bool has_edge(edge e) const {
    return arcs_.contains(edge_key(e.canonical()));
  }
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;

  [[nodiscard]] ett_rep find_rep(vertex_id v) const;
  [[nodiscard]] std::vector<ett_rep> batch_find_rep(
      std::span<const vertex_id> vs) const;

  /// Component-wide augmented sums for v's tree, and v's own stored
  /// counters (validation).
  [[nodiscard]] ett_counts component_counts(vertex_id v) const;
  [[nodiscard]] ett_counts vertex_counts(vertex_id v) const;

  /// Fetches, in tour order, vertices covering the first `want` incident
  /// non-tree (resp. tree) edge slots of v's component. Each result entry
  /// (x, c) means "take c edges from x's level-i non-tree (tree) adjacency
  /// list". Sum of takes == min(want, component total). (Appendix 9.)
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_nontree(
      vertex_id v, uint64_t want) const;
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_tree(
      vertex_id v, uint64_t want) const;

  /// All vertices of v's component, in tour order (diagnostics / tests).
  [[nodiscard]] std::vector<vertex_id> component_vertices(
      vertex_id v) const;

  /// Invokes fn(v) once per vertex of the component whose representative
  /// is `r` (from find_rep / batch_find_rep in the same read phase), in
  /// tour order, by streaming its chain of packed blocks; a tagged
  /// singleton rep decodes to its vertex. O(component size): the
  /// enumeration primitive behind incremental snapshot publishing — a
  /// touched component is relabelled without a global O(n) scan.
  template <typename Fn>
  void for_each_tour_vertex(ett_rep r, Fn&& fn) const {
    if (is_singleton_rep(r)) {
      fn(singleton_rep_vertex(r));
      return;
    }
    const block* start = static_cast<const tour*>(r)->head;
    for (const block* cur = start;;) {
      for (uint32_t i = 0; i < cur->count; ++i)
        if (!is_arc_tag(cur->tags[i]))
          fn(static_cast<vertex_id>(cur->tags[i]));
      cur = cur->next;
      if (cur == start) break;
    }
  }

  /// Structural validation (tests): block chain coherence, occupancy
  /// bounds, aggregate sums, tour orientation (closed Euler walk), and
  /// registration of every sentinel and arc. Empty string if healthy.
  [[nodiscard]] std::string check_consistency() const;

  // Memory accounting. pool_stats/trim_pool require quiescence (no phase
  // in flight); the directory gauges are atomic counters, safe anytime.
  // trim_pool keeps up to `keep_bytes` of spare blocks (see
  // node_pool::trim) and returns the bytes released. directory_bytes is
  // the vertex directory's root table plus its chunks (tour nodes
  // excluded); retained_bytes is everything the forest holds, each byte
  // once: its pool (tour nodes AND directory chunks) plus the directory's
  // root table.
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

  /// Packing diagnostics for the occupancy tests.
  struct block_stats {
    size_t tours = 0;    // multi-vertex components
    size_t blocks = 0;   // blocks across all tours
    size_t entries = 0;  // tour entries across all tours
    uint32_t min_fill = 0;  // smallest block of any multi-block tour
    uint32_t max_fill = 0;
    size_t bytes = 0;       // block storage across all tours
  };
  [[nodiscard]] block_stats debug_block_stats() const;

 private:
  struct tour;
  /// One packed segment of a tour: up to `cap` contiguous entries plus
  /// the aggregate counters of the sentinels it holds. Blocks of one tour
  /// form a circular doubly-linked list. A block is allocated with
  /// block_bytes(cap) bytes: tags past `cap` do not exist and are never
  /// touched.
  struct block {
    block* prev = nullptr;
    block* next = nullptr;
    tour* owner = nullptr;
    uint16_t count = 0;
    uint16_t cap = kBlockCap;  // one of kClassCaps
    ett_counts agg;  // sum of own() over sentinel entries in this block
    uint64_t tags[kBlockCap];
  };
  /// Per-component descriptor; its address is the component representative.
  struct tour {
    block* head = nullptr;  // some block of the cycle (iteration start)
    ett_counts agg;         // component-wide sums
    uint64_t nentries = 0;  // 3k - 2 for a k-vertex tree
    uint32_t nblocks = 0;
  };
  /// Per-ACTIVE-vertex state, held in the sparse directory: the vertex's
  /// HDT edge counters and the block holding its sentinel (null while the
  /// vertex has no incident tree edge at this level). The vertex count of
  /// a slot is always 1, so it is not stored: own() supplies it, and a
  /// slot is 16 bytes (a 32-slot directory chunk 528). Slot addresses are
  /// stable for the lifetime of their chunk (vertex_directory never moves
  /// slots).
  struct vslot {
    uint32_t tree_edges = 0;
    uint32_t nontree_edges = 0;
    block* vloc = nullptr;
    [[nodiscard]] ett_counts own() const {
      return {1, tree_edges, nontree_edges};
    }
  };
  /// Fixed-capacity block list for per-splice seam bookkeeping (one
  /// splice creates a bounded number of seam blocks, so rebalance
  /// candidates and merge-freed blocks never exceed the inline
  /// capacity). Avoids a heap allocation per link/cut.
  struct seam_blocks;
  /// Blocks holding an edge's two directed arc entries (fwd = the arc
  /// (c.u, c.v) of the canonical edge c). Entries move between blocks
  /// only on split/merge/borrow, which re-registers them here.
  struct arc_loc {
    block* fwd = nullptr;
    block* rev = nullptr;
  };

  /// A fresh block of `cap` entries (a kClassCaps value) owned by `owner`.
  block* new_block(tour* owner, uint32_t cap = kBlockCap);
  tour* new_tour();
  void free_block(block* b);
  void free_tour(tour* t);

  /// The directory slot of an active vertex (nullptr when inactive).
  [[nodiscard]] vslot* slot(vertex_id v) const { return dir_.find(v); }
  /// Activates v on first touch ({1,0,0} counters, no tour).
  vslot& ensure_slot(vertex_id v);
  /// Counters of a vertex known to be in a tour (slot must exist).
  [[nodiscard]] ett_counts own_of(vertex_id v) const;
  /// Reclaims v's slot when its last level-i edge has left (no tour, no
  /// counters). Call only from mutation phases, on v's own partition.
  void maybe_release_slot(vertex_id v, vslot& s);

  [[nodiscard]] tour* tour_of(vertex_id v) const;
  /// Materializes singleton v as a one-entry, one-block tour.
  tour* materialize(vertex_id v);
  /// Index of `tag` within b (must be present).
  [[nodiscard]] static uint32_t index_in_block(const block* b, uint64_t tag);
  /// Sum of own() over the sentinel entries among tags[0, m).
  [[nodiscard]] ett_counts sum_own(const uint64_t* tags, uint32_t m) const;
  /// Points the location record (slot vloc / arcs_) of entries
  /// [from, to) of b at b; by default every entry.
  void reregister(block* b, uint32_t from = 0, uint32_t to = UINT32_MAX);
  /// Moves the sole block of one-block tour t into a fresh block of
  /// class `cap` (no-op if it already has that class).
  void resize_single(tour* t, uint32_t cap);
  /// Ensures a block boundary before index i of b (0 <= i <= count);
  /// returns the block that begins with b's old entry i (b itself when
  /// i == 0, b's successor when i == count).
  block* split_at(block* b, uint32_t i);
  /// Restores the occupancy floor for b by merging with or borrowing
  /// from its successor; blocks freed by merges are appended to `dead`.
  void rebalance(block* b, seam_blocks& dead);
  /// Rebalances every distinct candidate block that is still alive
  /// (merges may free a later candidate — `dead` tracks those).
  void rebalance_candidates(const seam_blocks& cands, seam_blocks& dead);
  /// Appends `m` tags at the end of b (room must exist).
  void append_entries(block* b, const uint64_t* tags, uint32_t m);
  /// Inserts one tag at the front of b (room must exist).
  void prepend_entry(block* b, uint64_t tag);
  /// Records which block holds each directed arc of edge e.
  void set_arc_blocks(edge e, block* fwd_holder, block* rev_holder);
  /// Collapses a 1-entry tour back to the implicit singleton form.
  void collapse_singleton(tour* t, seam_blocks& dead);

  void link_one(vertex_id u, vertex_id v);
  /// link_one's path when host and guest together fit one block: the
  /// guest's entries and the two arcs are spliced into the host's block
  /// array (moved to the next size class if they overflow it).
  void link_within_block(tour* th, vertex_id h, vertex_id g, tour* tg);
  void cut_one(edge e);
  /// cut_one's path for a one-block tour: both sides are written back as
  /// one-block tours of their own size class.
  void cut_within_block(tour* t, uint64_t fwd_tag, uint64_t rev_tag);
  void add_counts_one(const count_delta& d);

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_counted(
      vertex_id v, uint64_t want, bool nontree) const;

  /// Batches below this size (or a 1-worker pool) skip the grouping
  /// machinery and run the sequential splice loop.
  static constexpr size_t kParallelMutationCutoff = 16;

  /// Scratch buffers reused across bulk-mutation calls (mutation phases
  /// are exclusive, so reuse is race-free). The low levels see the most
  /// frequent small batches (shattered deletions), so the per-batch
  /// allocations matter here.
  struct mutation_scratch {
    std::vector<uintptr_t> rep_u, rep_v;
    std::vector<uint64_t> keys;
  };
  mutation_scratch scratch_;

  vertex_id n_;
  phase_concurrent_map<arc_loc> arcs_;  // per canonical tree edge
  node_pool pool_;  // declared before dir_: chunks are pool storage
  // Sparse per-vertex state: a vertex holds a slot only while an edge at
  // this level touches it; tourless vertices rep as singleton_rep(v), so
  // activation/deactivation never moves a representative.
  vertex_directory<vslot> dir_;
};

}  // namespace bdc
