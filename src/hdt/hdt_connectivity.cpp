// HDT deletion (paper §2.2 "Deleting an Edge"): when a tree edge of level
// l is cut, search levels l..top. At level i, take the smaller of the two
// split components, push all of its level-i tree edges to level i-1 (legal
// by Invariant 1, required by Invariant 2), then examine its level-i
// non-tree edges one at a time: a replacement reconnects and ends the
// search; every non-replacement is pushed to level i-1, paying for its own
// examination (the charging argument behind the O(lg^2 n) bound).
#include "hdt/hdt_connectivity.hpp"

#include <cassert>

#include "parallel/scheduler.hpp"
#include "util/bits.hpp"

namespace bdc {

hdt_connectivity::hdt_connectivity(vertex_id n) : n_(n), records_(64) {
  int levels = std::max(1, static_cast<int>(log2_ceil(std::max<uint64_t>(
                               2, static_cast<uint64_t>(n)))));
  levels_.resize(static_cast<size_t>(levels));
  (void)forest(top());
}

blocked_ett& hdt_connectivity::forest(int level) {
  auto& slot = levels_[static_cast<size_t>(level)].forest;
  if (!slot) slot = std::make_unique<blocked_ett>(n_);
  return *slot;
}

void hdt_connectivity::add_adj(int level, edge c, bool is_tree) {
  auto& la = levels_[static_cast<size_t>(level)].adjacency;
  if (la.lists.empty()) la.lists.resize(n_);
  record& rec = *records_.find(edge_key(c));
  auto append = [&](vertex_id w, int side) {
    auto& list = la.lists[w][is_tree ? 0 : 1];
    rec.pos[side] = static_cast<uint32_t>(list.size());
    list.push_back(c);
  };
  append(c.u, 0);
  append(c.v, 1);
  add_counts(level, c, is_tree, 1);
}

void hdt_connectivity::remove_adj(int level, edge c) {
  auto& la = levels_[static_cast<size_t>(level)].adjacency;
  record& rec = *records_.find(edge_key(c));
  bool is_tree = rec.is_tree != 0;
  auto detach = [&](vertex_id w, int side) {
    auto& list = la.lists[w][is_tree ? 0 : 1];
    uint32_t slot = rec.pos[side];
    assert(slot < list.size() && list[slot] == c);
    edge moved = list.back();
    list[slot] = moved;
    list.pop_back();
    if (moved != c) {
      record& mrec = *records_.find(edge_key(moved));
      mrec.pos[moved.v == w ? 1 : 0] = slot;
    }
  };
  detach(c.u, 0);
  detach(c.v, 1);
  add_counts(level, c, is_tree, -1);
}

void hdt_connectivity::add_counts(int level, edge c, bool is_tree,
                                  int32_t d) {
  const count_delta deltas[2] = {{c.u, is_tree ? d : 0, is_tree ? 0 : d},
                                 {c.v, is_tree ? d : 0, is_tree ? 0 : d}};
  forest(level).batch_add_counts(deltas);
}

edge hdt_connectivity::first_adj(int level, vertex_id w, bool is_tree) const {
  const auto& la = levels_[static_cast<size_t>(level)].adjacency;
  const auto& list = la.lists[w][is_tree ? 0 : 1];
  assert(!list.empty());
  return list.front();
}

void hdt_connectivity::insert(edge e) {
  edge c = e.canonical();
  // Canonical form has u <= v, so one bound check covers both endpoints;
  // without it a hostile id would index the per-vertex adjacency arrays
  // out of bounds (ISSUE 8: validate in the library, not in callers).
  if (c.is_self_loop() || c.v >= n_ || records_.contains(edge_key(c)))
    return;
  stats_.edges_inserted++;
  int t = top();
  bool is_tree = !forest(t).connected(c.u, c.v);
  records_.reserve_for(1);
  records_.insert(edge_key(c), {static_cast<int16_t>(t),
                                static_cast<uint8_t>(is_tree ? 1 : 0),
                                {0, 0}});
  if (is_tree) forest(t).batch_link({&c, 1});
  add_adj(t, c, is_tree);
}

void hdt_connectivity::erase(edge e) {
  edge c = e.canonical();
  if (c.v >= n_) return;  // can never have been inserted
  const record* rec = records_.find(edge_key(c));
  if (rec == nullptr) return;
  stats_.edges_deleted++;
  int level = rec->level;
  bool was_tree = rec->is_tree != 0;
  remove_adj(level, c);
  records_.erase(edge_key(c));
  if (!was_tree) return;
  stats_.tree_edges_deleted++;
  for (int i = level; i <= top(); ++i) forest(i).batch_cut({&c, 1});
  replace(level, c.u, c.v);
}

void hdt_connectivity::replace(int level, vertex_id u, vertex_id v) {
  for (int i = level; i <= top(); ++i) {
    stats_.levels_searched++;
    blocked_ett& f = forest(i);
    // Search the smaller side (size <= capacity(i)/2 = capacity(i-1)).
    vertex_id x = f.component_counts(u).vertices <=
                          f.component_counts(v).vertices
                      ? u
                      : v;
    // Push the smaller side's level-i tree edges down (Invariant 2 prep).
    if (i > 0) {
      while (true) {
        auto slot = f.fetch_tree(x, 1);
        if (slot.empty()) break;
        edge te = first_adj(i, slot[0].first, /*is_tree=*/true);
        remove_adj(i, te);
        records_.find(edge_key(te))->level = static_cast<int16_t>(i - 1);
        add_adj(i - 1, te, /*is_tree=*/true);
        forest(i - 1).batch_link({&te, 1});
        stats_.edges_pushed++;
      }
    }
    // Examine level-i non-tree edges one at a time.
    while (true) {
      auto slot = f.fetch_nontree(x, 1);
      if (slot.empty()) break;  // exhausted: ascend
      edge ne = first_adj(i, slot[0].first, /*is_tree=*/false);
      if (!f.connected(ne.u, ne.v)) {
        // Replacement found: promote to a tree edge at level i and relink
        // every forest from i to the top.
        remove_adj(i, ne);
        records_.find(edge_key(ne))->is_tree = 1;
        add_adj(i, ne, /*is_tree=*/true);
        for (int j = i; j <= top(); ++j) forest(j).batch_link({&ne, 1});
        stats_.replacements_promoted++;
        return;
      }
      // Not a replacement: the examination is paid for by a level
      // decrease.
      assert(i > 0 && "level-0 non-tree edge cannot be internal to a "
                      "size-1 active side");
      remove_adj(i, ne);
      records_.find(edge_key(ne))->level = static_cast<int16_t>(i - 1);
      add_adj(i - 1, ne, /*is_tree=*/false);
      stats_.edges_pushed++;
    }
  }
}

bool hdt_connectivity::connected(vertex_id u, vertex_id v) const {
  if (u >= n_ || v >= n_) return false;
  return forest_if(top())->connected(u, v);
}

bool hdt_connectivity::has_edge(edge e) const {
  return records_.contains(edge_key(e.canonical()));
}

std::vector<bool> hdt_connectivity::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> qs) const {
  // Out-of-range endpoints answer false (the dynamic structure's
  // contract) before they reach the forest; bytes, because concurrent
  // writes to neighboring std::vector<bool> bits race.
  std::vector<uint8_t> bits(qs.size());
  parallel_for(0, qs.size(), [&](size_t i) {
    bits[i] = connected(qs[i].first, qs[i].second);
  });
  return std::vector<bool>(bits.begin(), bits.end());
}

std::string hdt_connectivity::check_invariants() const {
  for (int i = 0; i <= top(); ++i) {
    const blocked_ett* f = forest_if(i);
    if (f == nullptr) continue;
    if (auto err = f->check_consistency(); !err.empty())
      return "level " + std::to_string(i) + " forest: " + err;
    // Invariant 1.
    for (vertex_id v = 0; v < n_; ++v) {
      if (f->component_counts(v).vertices > capacity(i))
        return "Invariant 1 violated at level " + std::to_string(i);
    }
    // Counters match adjacency lists.
    const auto& la = levels_[static_cast<size_t>(i)].adjacency;
    for (vertex_id v = 0; v < n_; ++v) {
      uint32_t td = 0, nd = 0;
      if (v < la.lists.size()) {
        td = static_cast<uint32_t>(la.lists[v][0].size());
        nd = static_cast<uint32_t>(la.lists[v][1].size());
      }
      auto vc = f->vertex_counts(v);
      if (vc.tree_edges != td || vc.nontree_edges != nd)
        return "counter mismatch at level " + std::to_string(i);
    }
  }
  // Edge placement and Invariant 2's cycle property.
  for (auto& [key, rec] : records_.entries()) {
    edge c = edge_from_key(key);
    for (int i = 0; i <= top(); ++i) {
      const blocked_ett* f = forest_if(i);
      bool should = rec.is_tree && rec.level <= i;
      bool present = f != nullptr && f->has_edge(c);
      if (should != present)
        return "edge placement violated at level " + std::to_string(i);
    }
    if (!rec.is_tree) {
      const blocked_ett* f = forest_if(rec.level);
      if (f == nullptr || !f->connected(c.u, c.v))
        return "Invariant 2 violated (non-tree edge disconnected at its "
               "level)";
    }
  }
  return "";
}

}  // namespace bdc
