// The HDT level hierarchy (paper §2.2, §3 "Data Structures"): lg n levels,
// each holding a spanning forest F_i (a batch-parallel ETT) and per-level
// adjacency lists A_i, plus the global edge dictionary ED.
//
// Level i (0-based; the paper's level ℓ is i+1) may hold components of G_i
// of size at most cap(i) = 2^(i+1); new edges enter at the top level
// L-1 = ceil(lg n) - 1, and unsuccessful replacement candidates are pushed
// toward level 0. F_i contains every tree edge of level <= i.
//
// Levels are materialized lazily: a forest/adjacency object exists only
// once an edge or buffered insertion reaches that level, so workloads that
// never push deep pay nothing for the untouched levels.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adjacency/leveled_adjacency.hpp"
#include "ett/blocked_ett.hpp"
#include "util/bits.hpp"
#include "util/types.hpp"

namespace bdc {

class level_structure {
 public:
  /// Fail-stop on n > kMaxTourVertex + 1 (ett/tour_entry.hpp), in every
  /// build type: the packed arc tags hold 31-bit vertex ids, and a larger
  /// id would alias another edge's tag. Prints a diagnostic and aborts.
  explicit level_structure(vertex_id n);

  [[nodiscard]] vertex_id num_vertices() const { return n_; }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] int top() const { return num_levels() - 1; }
  /// Largest allowed component size of G_i at level i (Invariant 1).
  [[nodiscard]] uint64_t capacity(int level) const {
    return uint64_t{1} << (level + 1);
  }

  /// Aggregated node-pool counters across every materialized forest.
  [[nodiscard]] node_pool::stats_snapshot pool_stats() const;
  /// Hierarchy footprint (safe anytime: atomic counters + pool stats):
  /// materialized forest count, active directory slots summed across
  /// them, and the bytes those forests retain (each forest's pool, which
  /// holds its tour nodes and directory chunks, plus its directory root
  /// table; see blocked_ett::retained_bytes). This is what the levels.*
  /// gauges report — with sparse activation it scales with the touched
  /// vertices per level, not with n * materialized levels.
  struct hierarchy_stats {
    uint64_t materialized = 0;
    uint64_t active_vertices = 0;
    uint64_t bytes = 0;
  };
  [[nodiscard]] hierarchy_stats footprint() const;
  /// Trims every materialized forest's pool (see node_pool::trim),
  /// keeping up to `keep_bytes` of spare blocks per forest; returns the
  /// total bytes released. Quiescence required.
  size_t trim_pools(size_t keep_bytes = 0);

  /// F_i; materializes it if needed. A forest's address is stable for
  /// the structure's lifetime (batch_dynamic_connectivity caches the top
  /// one).
  blocked_ett& forest(int level);
  /// F_i if materialized, else nullptr (read paths).
  [[nodiscard]] const blocked_ett* forest_if(int level) const {
    return levels_[static_cast<size_t>(level)].forest.get();
  }
  [[nodiscard]] blocked_ett* forest_if(int level) {
    return levels_[static_cast<size_t>(level)].forest.get();
  }

  leveled_adjacency& adj(int level);
  [[nodiscard]] const leveled_adjacency* adj_if(int level) const {
    return levels_[static_cast<size_t>(level)].adjacency.get();
  }

  edge_dict& dict() { return dict_; }
  [[nodiscard]] const edge_dict& dict() const { return dict_; }

  [[nodiscard]] const edge_record* record_of(edge e) const {
    return dict_.find(edge_key(e.canonical()));
  }
  [[nodiscard]] size_t num_edges() const { return dict_.size(); }

  // ------------------------------------------------------------------
  // Compound batch operations (each runs its own internal phases).
  // Every edge span must be canonical, deduplicated, non-self-loop.
  // ------------------------------------------------------------------

  /// Registers brand-new edges at `level`: dictionary records, adjacency
  /// entries, and ETT counters. Does NOT touch any forest (call link_tree
  /// for the tree subset).
  void add_edges(int level, std::span<const edge> es,
                 std::span<const uint8_t> is_tree);

  /// Links `es` (already-registered level-`level` tree edges, or buffered
  /// lower-level tree edges) into F_level.
  void link_tree(int level, std::span<const edge> es) {
    if (!es.empty()) forest(level).batch_link(es);
  }

  /// Fully deregisters edges: adjacency entries, counters, and dictionary
  /// records. Levels are read from the records (may be mixed). Does not
  /// touch forests.
  void remove_edges(std::span<const edge> es);

  /// Detaches level-`level` edges from their adjacency lists and counters
  /// but keeps their dictionary records (Algorithm 5's deferred pushes:
  /// the edges sit in limbo until insert_detached places them again).
  void detach_edges(int level, std::span<const edge> es);

  /// Re-attaches previously detached edges at `level` with their current
  /// is_tree status, updating records' level. Forest linking is separate.
  void insert_detached(int level, std::span<const edge> es);

  /// Moves attached level-`from` edges to level from-1: records,
  /// adjacency, counters. Tree edges are additionally linked into
  /// F_{from-1}. (Equivalent to detach + insert_detached + link.)
  void move_down(int from, std::span<const edge> es);

  /// Flips attached level-`level` non-tree edges to tree status (record,
  /// adjacency kind, counters). Forest linking is separate.
  void promote_to_tree(int level, std::span<const edge> es);

  /// Expands ETT fetch slots (vertex, take) into concrete edges from the
  /// per-vertex lists, preserving tour order; duplicates (an edge seen from
  /// both endpoints) are kept — callers dedupe as needed.
  void expand_fetch(int level, bool nontree,
                    std::span<const std::pair<vertex_id, uint32_t>> slots,
                    std::vector<edge>& out) const;

 private:
  struct level_state {
    std::unique_ptr<blocked_ett> forest;
    std::unique_ptr<leveled_adjacency> adjacency;
  };

  /// Groups one incidence per edge endpoint and applies the adjacency op
  /// plus the matching ETT counter deltas at `level`.
  enum class adj_op { insert, erase, change_kind };
  void apply_adjacency(int level, std::span<const edge> es,
                       std::span<const uint8_t> is_tree, adj_op op);

  vertex_id n_;
  std::vector<level_state> levels_;
  edge_dict dict_;
};

}  // namespace bdc
