// The sequential Holm–de Lichtenberg–Thorup dynamic connectivity algorithm
// (paper §2.2; [31]) — the baseline the parallel algorithm is measured
// against. O(lg^2 n) amortized per edge update, O(lg n) per query.
//
// A thin client of the shared Euler-tour layer: each level's forest is a
// blocked_ett (the forest the parallel structure uses), driven through
// its batch surface one element at a time — one-edge link/cut spans,
// one-delta counter updates, and fetch_tree / fetch_nontree with want = 1
// for the slot search. Edge records live in the library's
// phase-concurrent dictionary, and adjacency lists are flat per-vertex
// arrays — no private bookkeeping containers. Its sequential HDT search
// shares no code with the parallel level search, so this baseline
// doubles as a correctness oracle for the parallel structure in tests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ett/blocked_ett.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "util/types.hpp"

namespace bdc {

class hdt_connectivity {
 public:
  explicit hdt_connectivity(vertex_id n);

  [[nodiscard]] vertex_id num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return records_.size(); }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }

  /// Inserts one edge; self-loops, duplicates, and edges with an endpoint
  /// outside [0, n) are ignored.
  void insert(edge e);
  /// Deletes one edge; absent edges (including out-of-range ids) are
  /// ignored.
  void erase(edge e);
  /// Out-of-range endpoints answer false.
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;
  [[nodiscard]] bool has_edge(edge e) const;

  /// Sequential batch wrappers (for benchmark comparability).
  void batch_insert(std::span<const edge> es) {
    for (const edge& e : es) insert(e);
  }
  void batch_delete(std::span<const edge> es) {
    for (const edge& e : es) erase(e);
  }
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) const;

  struct statistics {
    uint64_t edges_inserted = 0;
    uint64_t edges_deleted = 0;
    uint64_t tree_edges_deleted = 0;
    uint64_t replacements_promoted = 0;
    uint64_t edges_pushed = 0;
    uint64_t levels_searched = 0;
  };
  [[nodiscard]] const statistics& stats() const { return stats_; }

  /// Deep validation of the HDT invariants (tests).
  [[nodiscard]] std::string check_invariants() const;

 private:
  struct record {
    int16_t level = 0;
    uint8_t is_tree = 0;
    uint32_t pos[2] = {0, 0};  // slot in canonical u's / v's list at `level`
  };
  struct level_adj {
    // lists[v] = [tree list, nontree list] of canonical edges; sized to n
    // on first touch.
    std::vector<std::array<std::vector<edge>, 2>> lists;
  };
  struct level_state {
    std::unique_ptr<blocked_ett> forest;
    level_adj adjacency;
  };

  blocked_ett& forest(int level);
  [[nodiscard]] const blocked_ett* forest_if(int level) const {
    return levels_[static_cast<size_t>(level)].forest.get();
  }
  [[nodiscard]] uint64_t capacity(int level) const {
    return uint64_t{1} << (level + 1);
  }
  [[nodiscard]] int top() const { return num_levels() - 1; }

  void add_adj(int level, edge c, bool is_tree);
  void remove_adj(int level, edge c);
  /// Adds +-1 to both endpoints' tree (or non-tree) counters at `level`.
  void add_counts(int level, edge c, bool is_tree, int32_t d);
  /// First edge of the given kind incident to w at `level`.
  [[nodiscard]] edge first_adj(int level, vertex_id w, bool is_tree) const;

  /// Searches levels `level`..top for a replacement after deleting tree
  /// edge (u, v); relinks if one exists.
  void replace(int level, vertex_id u, vertex_id v);

  vertex_id n_;
  std::vector<level_state> levels_;
  phase_concurrent_map<record> records_;
  statistics stats_;
};

}  // namespace bdc
