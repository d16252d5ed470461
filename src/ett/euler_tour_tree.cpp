// Euler tour forest implementation. The tour algebra:
//
// batch_link: for every vertex u receiving new arcs (u,x_1..x_g), the tour
//   around u is re-stitched as
//     u -> (u,x_1),  (x_i,u) -> (u,x_{i+1}),  (x_g,u) -> old_succ(u),
//   where old_succ(u) is u's level-0 successor before the batch. Each arc
//   node's successor is assigned exactly once (by its head vertex's group),
//   so all joins are pairwise node-disjoint and the batch reconstitutes one
//   Euler circle per merged tree.
//
// batch_cut: removing arc node d with twin t splices pred(d) to
//   resolve(succ(t)), where resolve() walks over arcs that are themselves
//   being removed: resolve(x) = x if x survives, else
//   resolve(succ(twin(x))). Resolution chains are disjoint across join
//   tails (they converge only at equal heads, which are unique), so total
//   resolution work is O(k).
#include "ett/euler_tour_tree.hpp"

#include <cassert>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/semisort.hpp"

namespace bdc {

namespace {

constexpr uint8_t kRemovedFlag = 1;

// Entry encoding: ett/tour_entry.hpp, shared with the other substrates.
uint64_t vertex_tag(vertex_id v) { return static_cast<uint64_t>(v); }

uint64_t ptr_key(const void* p) {
  // Pointers are never null here and never equal the map's reserved keys.
  return reinterpret_cast<uint64_t>(p);
}

}  // namespace

euler_tour_forest::euler_tour_forest(vertex_id n, uint64_t seed)
    : n_(n), list_(seed), dir_(n, list_.pool()), edge_map_(64) {
  assert(uint64_t{n} <= uint64_t{kMaxTourVertex} + 1);
  // Construction is O(n / kSpan) (the directory root table), not O(n):
  // tour nodes are created on first edge touch (ensure_vertex) and
  // reclaimed when a vertex's last level-i edge leaves.
}

euler_tour_forest::node* euler_tour_forest::ensure_vertex(vertex_id v) {
  if (node* vn = vertex_node(v)) return vn;
  node* vn = list_.create_node(vertex_tag(v), ett_counts{1, 0, 0});
  dir_.activate(v, [&](node*& slot) { slot = vn; });
  return vn;
}

void euler_tour_forest::maybe_release_vertex(vertex_id v) {
  node* vn = vertex_node(v);
  if (vn == nullptr) return;
  if (vn->next_at(0) != vn) return;  // still in a multi-node tour
  ett_counts c = list_.value(vn);
  if (c.tree_edges != 0 || c.nontree_edges != 0) return;
  dir_.deactivate(v);
  list_.free_node(vn);
}

void euler_tour_forest::batch_link(std::span<const edge> links) {
  size_t k = links.size();
  if (k == 0) return;

  // Create the 2k arc nodes.
  std::vector<edge_nodes> enodes(k);
  parallel_for(0, k, [&](size_t i) {
    edge c = links[i].canonical();
    assert(!c.is_self_loop());
    enodes[i].fwd = list_.create_node(arc_tag(c.u, c.v), ett_counts{});
    enodes[i].rev = list_.create_node(arc_tag(c.v, c.u), ett_counts{});
  });

  // Group directed arcs by tail vertex; value = (arc node, twin node).
  using arc_rec = std::pair<node*, node*>;
  std::vector<std::pair<vertex_id, arc_rec>> arcs(2 * k);
  parallel_for(0, k, [&](size_t i) {
    edge c = links[i].canonical();
    arcs[2 * i] = {c.u, {enodes[i].fwd, enodes[i].rev}};
    arcs[2 * i + 1] = {c.v, {enodes[i].rev, enodes[i].fwd}};
  });
  auto groups = group_by_key(std::move(arcs));
  size_t g = groups.num_groups();

  // Capture each involved vertex's old successor, then open its boundary.
  // Group keys are distinct vertices, so first-touch activation here is
  // race-free across workers.
  std::vector<node*> cut_points(g), old_succ(g);
  parallel_for(0, g, [&](size_t j) {
    node* vn = ensure_vertex(groups.group_key(j));
    cut_points[j] = vn;
    old_succ[j] = vn->next_at(0);
  });
  list_.batch_split_after(cut_points);

  // Stitch: group j with arcs a_1..a_s contributes s+1 joins.
  std::vector<std::pair<node*, node*>> joins(2 * k + g);
  parallel_for(0, g, [&](size_t j) {
    uint32_t st = groups.group_starts[j];
    uint32_t sz = static_cast<uint32_t>(groups.group_size(j));
    size_t base = st + j;
    node* vn = vertex_node(groups.group_key(j));
    joins[base] = {vn, groups.records[st].second.first};
    for (uint32_t i = 0; i < sz; ++i) {
      node* twin = groups.records[st + i].second.second;
      node* head = (i + 1 < sz) ? groups.records[st + i + 1].second.first
                                : old_succ[j];
      joins[base + 1 + i] = {twin, head};
    }
  });
  list_.batch_join(joins);

  // Repair augmented values around every splice point and new node.
  std::vector<node*> dirty(2 * k + 2 * g);
  parallel_for(0, k, [&](size_t i) {
    dirty[2 * i] = enodes[i].fwd;
    dirty[2 * i + 1] = enodes[i].rev;
  });
  parallel_for(0, g, [&](size_t j) {
    dirty[2 * k + 2 * j] = cut_points[j];
    dirty[2 * k + 2 * j + 1] = old_succ[j];
  });
  list_.batch_repair(std::move(dirty));

  // Record the new tree edges.
  edge_map_.reserve_for(k);
  parallel_for(0, k, [&](size_t i) {
    edge_map_.insert(edge_key(links[i].canonical()), enodes[i]);
  });
}

void euler_tour_forest::batch_cut(std::span<const edge> cuts) {
  size_t k = cuts.size();
  if (k == 0) return;

  // Look up the arc nodes and mark them removed.
  std::vector<edge_nodes> en(k);
  parallel_for(0, k, [&](size_t i) {
    const edge_nodes* p = edge_map_.find(edge_key(cuts[i].canonical()));
    assert(p != nullptr && "batch_cut: edge not in forest");
    en[i] = *p;
    en[i].fwd->flags.store(kRemovedFlag, std::memory_order_release);
    en[i].rev->flags.store(kRemovedFlag, std::memory_order_release);
  });

  // Capture, for every removed arc node, its original neighbors and twin.
  struct removed_info {
    node* pred = nullptr;
    node* succ = nullptr;
    node* twin = nullptr;
  };
  phase_concurrent_map<removed_info> info(2 * k);
  std::vector<node*> removed(2 * k);
  parallel_for(0, k, [&](size_t i) {
    node* f = en[i].fwd;
    node* r = en[i].rev;
    removed[2 * i] = f;
    removed[2 * i + 1] = r;
    info.insert(ptr_key(f), {f->prev_at(0), f->next_at(0), r});
    info.insert(ptr_key(r), {r->prev_at(0), r->next_at(0), f});
  });

  // Open both boundaries of every removed node. A boundary "after x" is
  // identified by x, so the set is {d, pred(d)} over removed d, deduped.
  std::vector<node*> cut_points(4 * k);
  parallel_for(0, 2 * k, [&](size_t i) {
    cut_points[2 * i] = removed[i];
    cut_points[2 * i + 1] = info.find(ptr_key(removed[i]))->pred;
  });
  sort_unique(cut_points);
  list_.batch_split_after(cut_points);

  // One join per removed node whose predecessor survives.
  auto resolve = [&](node* x) {
    while ((x->flags.load(std::memory_order_acquire) & kRemovedFlag) != 0) {
      node* twin = info.find(ptr_key(x))->twin;
      x = info.find(ptr_key(twin))->succ;
    }
    return x;
  };
  std::vector<std::pair<node*, node*>> joins(2 * k, {nullptr, nullptr});
  parallel_for(0, 2 * k, [&](size_t i) {
    const removed_info& ri = *info.find(ptr_key(removed[i]));
    if ((ri.pred->flags.load(std::memory_order_acquire) & kRemovedFlag) != 0)
      return;  // covered by the removed predecessor's own chain
    joins[i] = {ri.pred, resolve(info.find(ptr_key(ri.twin))->succ)};
  });
  joins = filter(joins, [](const std::pair<node*, node*>& j) {
    return j.first != nullptr;
  });
  list_.batch_join(joins);

  // Repair around every splice.
  std::vector<node*> dirty(2 * joins.size());
  parallel_for(0, joins.size(), [&](size_t i) {
    dirty[2 * i] = joins[i].first;
    dirty[2 * i + 1] = joins[i].second;
  });
  list_.batch_repair(std::move(dirty));

  // Drop the edges from the map and release the nodes.
  std::vector<uint64_t> keys(k);
  parallel_for(0, k, [&](size_t i) {
    keys[i] = edge_key(cuts[i].canonical());
  });
  edge_map_.erase_batch(keys);
  parallel_for(0, k, [&](size_t i) {
    list_.free_node(en[i].fwd);
    list_.free_node(en[i].rev);
  });

  // Vertices stranded as lone circles with no counters give their slots
  // back. Endpoints are deduped first: two cuts sharing an endpoint would
  // otherwise race on the same release.
  std::vector<vertex_id> touched(2 * k);
  parallel_for(0, k, [&](size_t i) {
    touched[2 * i] = cuts[i].u;
    touched[2 * i + 1] = cuts[i].v;
  });
  sort_unique(touched);
  parallel_for(0, touched.size(),
               [&](size_t i) { maybe_release_vertex(touched[i]); });
  dir_.sweep_pending();
}

void euler_tour_forest::batch_add_counts(
    std::span<const count_delta> deltas) {
  if (deltas.empty()) return;
  std::vector<node*> dirty(deltas.size());
  parallel_for(0, deltas.size(), [&](size_t i) {
    const count_delta& d = deltas[i];
    // At most one delta per vertex, so first-touch activation is
    // race-free across workers.
    node* vn = ensure_vertex(d.v);
    ett_counts c = list_.value(vn);
    assert(static_cast<int64_t>(c.tree_edges) + d.tree_delta >= 0);
    assert(static_cast<int64_t>(c.nontree_edges) + d.nontree_delta >= 0);
    c.tree_edges = static_cast<uint32_t>(
        static_cast<int64_t>(c.tree_edges) + d.tree_delta);
    c.nontree_edges = static_cast<uint32_t>(
        static_cast<int64_t>(c.nontree_edges) + d.nontree_delta);
    list_.set_value(vn, c);
    dirty[i] = vn;
  });
  list_.batch_repair(std::move(dirty));
  // Vertices whose last counter just left (and that sit in no tour)
  // give their slots back; deltas are per-vertex-unique, so no races.
  parallel_for(0, deltas.size(),
               [&](size_t i) { maybe_release_vertex(deltas[i].v); });
  dir_.sweep_pending();
}

bool euler_tour_forest::connected(vertex_id u, vertex_id v) const {
  node* un = vertex_node(u);
  node* vn = vertex_node(v);
  if (un == nullptr || vn == nullptr) return u == v;  // inactive: singleton
  return list_.representative(un) == list_.representative(vn);
}

std::vector<bool> euler_tour_forest::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> queries) const {
  // Parallel writes land in a byte array: std::vector<bool> packs bits, so
  // concurrent writes to different indices would race on shared bytes.
  std::vector<uint8_t> bits(queries.size());
  parallel_for(
      0, queries.size(),
      [&](size_t i) {
        bits[i] = connected(queries[i].first, queries[i].second) ? 1 : 0;
      },
      kWalkGrain);
  return std::vector<bool>(bits.begin(), bits.end());
}

ett_rep euler_tour_forest::find_rep(vertex_id v) const {
  node* vn = vertex_node(v);
  // Tourless vertices (inactive, or active with non-tree counters only)
  // take the tagged singleton rep, so batch_add_counts-driven activation
  // and reclamation never move a representative.
  if (vn == nullptr || vn->next_at(0) == vn) return singleton_rep(v);
  return list_.representative(vn);
}

std::vector<ett_rep> euler_tour_forest::batch_find_rep(
    std::span<const vertex_id> vs) const {
  std::vector<ett_rep> out(vs.size());
  parallel_for(
      0, vs.size(), [&](size_t i) { out[i] = find_rep(vs[i]); }, kWalkGrain);
  return out;
}

ett_counts euler_tour_forest::component_counts(vertex_id v) const {
  node* vn = vertex_node(v);
  return vn == nullptr ? ett_counts{1, 0, 0} : list_.total(vn);
}

ett_counts euler_tour_forest::vertex_counts(vertex_id v) const {
  node* vn = vertex_node(v);
  return vn == nullptr ? ett_counts{1, 0, 0} : list_.value(vn);
}

std::vector<std::pair<vertex_id, uint32_t>> euler_tour_forest::fetch_counted(
    vertex_id v, uint64_t want, bool nontree) const {
  node* vn = vertex_node(v);
  if (vn == nullptr) return {};  // inactive singleton: no counters
  std::vector<std::pair<node*, uint64_t>> raw;
  if (nontree) {
    list_.collect_first(
        vn, want,
        [](const ett_counts& c) -> uint64_t { return c.nontree_edges; }, raw);
  } else {
    list_.collect_first(
        vn, want,
        [](const ett_counts& c) -> uint64_t { return c.tree_edges; }, raw);
  }
  std::vector<std::pair<vertex_id, uint32_t>> out(raw.size());
  parallel_for(0, raw.size(), [&](size_t i) {
    assert(!is_arc_tag(raw[i].first->tag));  // only vertex nodes carry counts
    out[i] = {static_cast<vertex_id>(raw[i].first->tag),
              static_cast<uint32_t>(raw[i].second)};
  });
  return out;
}

std::vector<std::pair<vertex_id, uint32_t>> euler_tour_forest::fetch_nontree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/true);
}

std::vector<std::pair<vertex_id, uint32_t>> euler_tour_forest::fetch_tree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/false);
}

std::vector<vertex_id> euler_tour_forest::component_vertices(
    vertex_id v) const {
  node* vn = vertex_node(v);
  if (vn == nullptr) return {v};
  std::vector<vertex_id> out;
  for (node* n : list_.circle_of(vn)) {
    if (!is_arc_tag(n->tag)) out.push_back(static_cast<vertex_id>(n->tag));
  }
  return out;
}

std::string euler_tour_forest::check_consistency() const {
  // Directory invariants first: chunk occupancy bookkeeping, then the
  // activation contract — a slot exists iff some level-i edge still
  // touches its vertex (a lone circle with zero edge counters is an
  // activation leak: maybe_release_vertex should have reclaimed it).
  if (std::string err = dir_.check_consistency(); !err.empty()) return err;
  std::vector<std::pair<vertex_id, node*>> active;
  active.reserve(dir_.active_count());
  dir_.for_each_active(
      [&](vertex_id v, node* const& vn) { active.emplace_back(v, vn); });
  for (auto [v, vn] : active) {
    if (vn->tag != vertex_tag(v)) return "vertex node tag mismatch";
    ett_counts c = list_.value(vn);
    if (c.vertices != 1) return "per-vertex counter lost its vertex";
    if (vn->next_at(0) == vn && c.tree_edges == 0 && c.nontree_edges == 0)
      return "activation leak: lone circle with zero edge counters";
  }

  // Sequential deep validation: every circle's links, levels, and sums.
  std::unordered_set<const node*> seen;
  for (auto [v, start] : active) {
    (void)v;
    if (seen.count(start)) continue;
    // Walk the level-0 circle.
    std::vector<node*> circle;
    node* cur = start;
    do {
      if (cur == nullptr) return "null link in level-0 circle";
      if (cur->flags.load() != 0) return "stale removed flag";
      circle.push_back(cur);
      node* nx = cur->next_at(0);
      if (nx == nullptr || nx->prev_at(0) != cur)
        return "level-0 next/prev mismatch";
      cur = nx;
      if (circle.size() > 3 * (2 * edge_map_.size() + active.size()))
        return "level-0 circle does not close";
    } while (cur != start);
    for (node* n : circle) seen.insert(n);

    // Check each level's ring is the height-filtered subsequence and that
    // every augmented value equals the recomputed block sum.
    int max_h = 0;
    for (node* n : circle) max_h = std::max(max_h, int{n->height});
    for (int lvl = 1; lvl < max_h; ++lvl) {
      std::vector<node*> ring;
      for (node* n : circle)
        if (n->height > lvl) ring.push_back(n);
      if (ring.empty()) break;
      for (size_t i = 0; i < ring.size(); ++i) {
        node* a = ring[i];
        node* b = ring[(i + 1) % ring.size()];
        if (a->next_at(lvl) != b || b->prev_at(lvl) != a)
          return "level ring mismatch at level " + std::to_string(lvl);
      }
    }
    // Augmentation: aug[lvl] of each height>lvl node equals the sum of
    // aug[lvl-1] over its block.
    for (int lvl = 1; lvl <= max_h - 1; ++lvl) {
      size_t n_circ = circle.size();
      for (size_t i = 0; i < n_circ; ++i) {
        node* o = circle[i];
        if (o->height <= lvl) continue;
        ett_counts acc{};
        size_t j = i;
        do {
          node* m = circle[j];
          if (m->height > lvl - 1) acc = acc + m->aug[lvl - 1];
          j = (j + 1) % n_circ;
        } while (j != i && circle[j]->height <= lvl);
        if (!(acc == o->aug[lvl]))
          return "augmentation mismatch at level " + std::to_string(lvl);
      }
    }
    // Tour validity: arcs appear in matched pairs and interleave legally.
    std::unordered_map<uint64_t, int> arc_count;
    for (node* n : circle)
      if (is_arc_tag(n->tag)) arc_count[n->tag]++;
    for (auto& [tag, cnt] : arc_count) {
      if (cnt != 1) return "duplicate arc node in tour";
      uint64_t tail = (tag >> 31) & 0x7fffffff, head = tag & 0x7fffffff;
      if (!arc_count.count(arc_tag(static_cast<vertex_id>(head),
                                   static_cast<vertex_id>(tail))))
        return "arc without twin in tour";
    }
  }
  // Every arc node registered in the edge map must have been visited.
  // Sequential walk: for_each fans out across workers, which would race
  // on the error string.
  for (auto& [key, enx] : edge_map_.entries()) {
    (void)key;
    if (!seen.count(enx.fwd) || !seen.count(enx.rev))
      return "edge-map node not reachable from any vertex";
  }
  return "";
}

}  // namespace bdc
