#include "core/level_structure.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "ett/tour_entry.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/semisort.hpp"

namespace bdc {

level_structure::level_structure(vertex_id n) : n_(n), dict_(256) {
  if (static_cast<uint64_t>(n) > uint64_t{kMaxTourVertex} + 1) {
    std::fprintf(stderr,
                 "bdc: level_structure: n = %llu exceeds the %llu vertices "
                 "the Euler-tour tags can hold; aborting\n",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(kMaxTourVertex) + 1);
    std::abort();
  }
  int levels = std::max(1, static_cast<int>(log2_ceil(std::max<uint64_t>(
                               2, static_cast<uint64_t>(n)))));
  levels_.resize(static_cast<size_t>(levels));
  // The top forest always exists: queries and insertions use it.
  (void)forest(top());
}

blocked_ett& level_structure::forest(int level) {
  auto& slot = levels_[static_cast<size_t>(level)].forest;
  if (!slot) slot = std::make_unique<blocked_ett>(n_);
  return *slot;
}

node_pool::stats_snapshot level_structure::pool_stats() const {
  node_pool::stats_snapshot total;
  for (const level_state& ls : levels_)
    if (ls.forest) total += ls.forest->pool_stats();
  return total;
}

level_structure::hierarchy_stats level_structure::footprint() const {
  hierarchy_stats hs;
  for (const level_state& ls : levels_) {
    if (!ls.forest) continue;
    ++hs.materialized;
    hs.active_vertices += ls.forest->active_vertices();
    hs.bytes += ls.forest->retained_bytes();
  }
  return hs;
}

size_t level_structure::trim_pools(size_t keep_bytes) {
  size_t released = 0;
  for (level_state& ls : levels_)
    if (ls.forest) released += ls.forest->trim_pool(keep_bytes);
  return released;
}

leveled_adjacency& level_structure::adj(int level) {
  auto& slot = levels_[static_cast<size_t>(level)].adjacency;
  if (!slot) slot = std::make_unique<leveled_adjacency>();
  return *slot;
}

void level_structure::apply_adjacency(int level, std::span<const edge> es,
                                      std::span<const uint8_t> is_tree,
                                      adj_op op) {
  size_t k = es.size();
  if (k == 0) return;
  // Two incidences per edge, grouped by endpoint.
  std::vector<std::pair<vertex_id, leveled_adjacency::incidence>> inc(2 * k);
  parallel_for(0, k, [&](size_t i) {
    uint8_t t = is_tree[i];
    inc[2 * i] = {es[i].u, {es[i], t}};
    inc[2 * i + 1] = {es[i].v, {es[i], t}};
  });
  auto groups = group_by_key(std::move(inc));

  leveled_adjacency& a = adj(level);
  switch (op) {
    case adj_op::insert:
      a.insert_grouped(groups, dict_);
      break;
    case adj_op::erase:
      a.erase_grouped(groups, dict_);
      break;
    case adj_op::change_kind:
      a.change_kind_grouped(groups, dict_);
      break;
  }

  // Counter deltas on F_level: one entry per touched vertex.
  std::vector<count_delta> deltas(groups.num_groups());
  parallel_for(0, groups.num_groups(), [&](size_t g) {
    int32_t tree = 0, nontree = 0;
    for (uint32_t i = groups.group_starts[g]; i < groups.group_starts[g + 1];
         ++i) {
      if (groups.records[i].second.is_tree)
        ++tree;
      else
        ++nontree;
    }
    switch (op) {
      case adj_op::insert:
        break;  // (+tree, +nontree)
      case adj_op::erase:
        tree = -tree;
        nontree = -nontree;
        break;
      case adj_op::change_kind:
        // incidences carry the NEW kind; each flip moves one unit over.
        nontree = -tree;
        break;
    }
    deltas[g] = {groups.group_key(g), tree, nontree};
  });
  forest(level).batch_add_counts(deltas);
}

void level_structure::add_edges(int level, std::span<const edge> es,
                                std::span<const uint8_t> is_tree) {
  size_t k = es.size();
  if (k == 0) return;
  dict_.reserve_for(k);
  parallel_for(0, k, [&](size_t i) {
    assert(es[i].u < es[i].v && "add_edges expects canonical edges");
    edge_record rec;
    rec.level = static_cast<int16_t>(level);
    rec.is_tree = is_tree[i];
    dict_.insert(edge_key(es[i]), rec);
  });
  apply_adjacency(level, es, is_tree, adj_op::insert);
}

void level_structure::remove_edges(std::span<const edge> es) {
  size_t k = es.size();
  if (k == 0) return;
  // Bucket by current level, then erase per level.
  std::vector<std::pair<int, edge>> by_level(k);
  std::vector<uint8_t> tree_flag(k);
  parallel_for(0, k, [&](size_t i) {
    const edge_record* rec = record_of(es[i]);
    assert(rec != nullptr);
    by_level[i] = {rec->level, es[i]};
  });
  auto groups = group_by_key(std::move(by_level));
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    int level = groups.group_key(g);
    uint32_t st = groups.group_starts[g], en = groups.group_starts[g + 1];
    std::vector<edge> lvl_edges(en - st);
    std::vector<uint8_t> lvl_tree(en - st);
    parallel_for(0, lvl_edges.size(), [&](size_t i) {
      lvl_edges[i] = groups.records[st + i].second;
      lvl_tree[i] = record_of(lvl_edges[i])->is_tree;
    });
    apply_adjacency(level, lvl_edges, lvl_tree, adj_op::erase);
  }
  std::vector<uint64_t> keys(k);
  parallel_for(0, k, [&](size_t i) { keys[i] = edge_key(es[i]); });
  dict_.erase_batch(keys);
}

void level_structure::detach_edges(int level, std::span<const edge> es) {
  size_t k = es.size();
  if (k == 0) return;
  std::vector<uint8_t> tree_flag(k);
  parallel_for(0, k, [&](size_t i) {
    const edge_record* rec = record_of(es[i]);
    assert(rec != nullptr && rec->level == level);
    tree_flag[i] = rec->is_tree;
  });
  apply_adjacency(level, es, tree_flag, adj_op::erase);
}

void level_structure::insert_detached(int level, std::span<const edge> es) {
  size_t k = es.size();
  if (k == 0) return;
  std::vector<uint8_t> tree_flag(k);
  parallel_for(0, k, [&](size_t i) {
    edge_record* rec = dict_.find(edge_key(es[i]));
    assert(rec != nullptr);
    rec->level = static_cast<int16_t>(level);
    tree_flag[i] = rec->is_tree;
  });
  apply_adjacency(level, es, tree_flag, adj_op::insert);
}

void level_structure::move_down(int from, std::span<const edge> es) {
  if (es.empty()) return;
  assert(from > 0 && "cannot push below level 0");
  detach_edges(from, es);
  insert_detached(from - 1, es);
  // Tree edges additionally enter F_{from-1}.
  auto tree_subset = filter(
      std::vector<edge>(es.begin(), es.end()),
      [&](const edge& e) { return record_of(e)->is_tree != 0; });
  link_tree(from - 1, tree_subset);
}

void level_structure::promote_to_tree(int level, std::span<const edge> es) {
  size_t k = es.size();
  if (k == 0) return;
  std::vector<uint8_t> new_kind(k, 1);
  parallel_for(0, k, [&](size_t i) {
    edge_record* rec = dict_.find(edge_key(es[i]));
    assert(rec != nullptr && rec->is_tree == 0 && rec->level == level);
    rec->is_tree = 1;
  });
  apply_adjacency(level, es, new_kind, adj_op::change_kind);
}

void level_structure::expand_fetch(
    int level, bool nontree,
    std::span<const std::pair<vertex_id, uint32_t>> slots,
    std::vector<edge>& out) const {
  const leveled_adjacency* a = adj_if(level);
  if (a == nullptr) return;
  // Offsets for a parallel gather preserving slot order.
  std::vector<size_t> offsets(slots.size());
  parallel_for(0, slots.size(),
               [&](size_t i) { offsets[i] = slots[i].second; });
  size_t total = exclusive_scan(offsets);
  size_t base = out.size();
  out.resize(base + total);
  parallel_for(
      0, slots.size(),
      [&](size_t i) {
        std::vector<edge> tmp;
        tmp.reserve(slots[i].second);
        if (nontree) {
          a->fetch_nontree(slots[i].first, slots[i].second, tmp);
        } else {
          a->fetch_tree(slots[i].first, slots[i].second, tmp);
        }
        assert(tmp.size() == slots[i].second);
        std::copy(tmp.begin(), tmp.end(), out.begin() + base + offsets[i]);
      },
      work_grain(slots.size(), total));
}

}  // namespace bdc
