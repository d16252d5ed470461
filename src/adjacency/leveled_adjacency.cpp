#include "adjacency/leveled_adjacency.hpp"

#include <cassert>
#include <string>

#include "parallel/scheduler.hpp"

namespace bdc {

leveled_adjacency::~leveled_adjacency() {
  slots_.for_each([](uint64_t, vertex_slot*& s) { delete s; });
}

leveled_adjacency::vertex_slot* leveled_adjacency::slot_for(
    vertex_id u) const {
  vertex_slot* const* p = slots_.find(static_cast<uint64_t>(u));
  return p == nullptr ? nullptr : *p;
}

leveled_adjacency::vertex_slot* leveled_adjacency::ensure_slot(vertex_id u) {
  if (vertex_slot* s = slot_for(u)) return s;
  auto* s = new vertex_slot();
  slots_.insert(static_cast<uint64_t>(u), s);
  return s;
}

void leveled_adjacency::insert_grouped(const grouped& by_endpoint,
                                       edge_dict& dict) {
  // One insert per group may create a slot; reserve before the phase.
  slots_.reserve_for(by_endpoint.num_groups());
  parallel_for(
      0, by_endpoint.num_groups(),
      [&](size_t g) {
        vertex_id u = by_endpoint.group_key(g);
        vertex_slot* s = ensure_slot(u);
        uint32_t st = by_endpoint.group_starts[g];
        uint32_t en = by_endpoint.group_starts[g + 1];
        for (uint32_t i = st; i < en; ++i) {
          const incidence& inc = by_endpoint.records[i].second;
          edge c = inc.e.canonical();
          auto& list = inc.is_tree ? s->tree : s->nontree;
          edge_record* rec = dict.find(edge_key(c));
          assert(rec != nullptr);
          rec->pos[side_of(c, u)] = static_cast<uint32_t>(list.size());
          list.push_back(c);
        }
      },
      work_grain(by_endpoint.num_groups(), by_endpoint.records.size()));
}

void leveled_adjacency::erase_grouped(const grouped& by_endpoint,
                                      edge_dict& dict) {
  parallel_for(
      0, by_endpoint.num_groups(),
      [&](size_t g) {
        vertex_id u = by_endpoint.group_key(g);
        vertex_slot* s = slot_for(u);
        assert(s != nullptr);
        uint32_t st = by_endpoint.group_starts[g];
        uint32_t en = by_endpoint.group_starts[g + 1];
        for (uint32_t i = st; i < en; ++i) {
          const incidence& inc = by_endpoint.records[i].second;
          edge c = inc.e.canonical();
          edge_record* rec = dict.find(edge_key(c));
          assert(rec != nullptr);
          auto& list = inc.is_tree ? s->tree : s->nontree;
          int side = side_of(c, u);
          uint32_t slot = rec->pos[side];
          assert(slot < list.size() && list[slot] == c);
          edge moved = list.back();
          list[slot] = moved;
          list.pop_back();
          if (moved != c) {
            edge_record* mrec = dict.find(edge_key(moved));
            assert(mrec != nullptr);
            mrec->pos[side_of(moved, u)] = slot;
          }
        }
      },
      work_grain(by_endpoint.num_groups(), by_endpoint.records.size()));
}

void leveled_adjacency::change_kind_grouped(const grouped& by_endpoint,
                                            edge_dict& dict) {
  parallel_for(
      0, by_endpoint.num_groups(),
      [&](size_t g) {
        vertex_id u = by_endpoint.group_key(g);
        vertex_slot* s = slot_for(u);
        assert(s != nullptr);
        uint32_t st = by_endpoint.group_starts[g];
        uint32_t en = by_endpoint.group_starts[g + 1];
        for (uint32_t i = st; i < en; ++i) {
          const incidence& inc = by_endpoint.records[i].second;
          edge c = inc.e.canonical();
          edge_record* rec = dict.find(edge_key(c));
          assert(rec != nullptr);
          // inc.is_tree is the NEW kind; the edge currently sits in the
          // other list.
          auto& from = inc.is_tree ? s->nontree : s->tree;
          auto& to = inc.is_tree ? s->tree : s->nontree;
          int side = side_of(c, u);
          uint32_t slot = rec->pos[side];
          assert(slot < from.size() && from[slot] == c);
          edge moved = from.back();
          from[slot] = moved;
          from.pop_back();
          if (moved != c) {
            edge_record* mrec = dict.find(edge_key(moved));
            mrec->pos[side_of(moved, u)] = slot;
          }
          rec->pos[side] = static_cast<uint32_t>(to.size());
          to.push_back(c);
        }
      },
      work_grain(by_endpoint.num_groups(), by_endpoint.records.size()));
}

uint32_t leveled_adjacency::tree_degree(vertex_id u) const {
  vertex_slot* s = slot_for(u);
  return s == nullptr ? 0 : static_cast<uint32_t>(s->tree.size());
}

uint32_t leveled_adjacency::nontree_degree(vertex_id u) const {
  vertex_slot* s = slot_for(u);
  return s == nullptr ? 0 : static_cast<uint32_t>(s->nontree.size());
}

void leveled_adjacency::fetch_tree(vertex_id u, uint32_t want,
                                   std::vector<edge>& out) const {
  vertex_slot* s = slot_for(u);
  if (s == nullptr) return;
  uint32_t take = std::min<uint32_t>(want, s->tree.size());
  out.insert(out.end(), s->tree.begin(), s->tree.begin() + take);
}

void leveled_adjacency::fetch_nontree(vertex_id u, uint32_t want,
                                      std::vector<edge>& out) const {
  vertex_slot* s = slot_for(u);
  if (s == nullptr) return;
  uint32_t take = std::min<uint32_t>(want, s->nontree.size());
  out.insert(out.end(), s->nontree.begin(), s->nontree.begin() + take);
}

size_t leveled_adjacency::total_incidences() const {
  size_t total = 0;
  slots_.for_each([&](uint64_t, vertex_slot* const& s) {
    // for_each is parallel; accumulate atomically via per-slot additions.
    __atomic_fetch_add(&total, s->tree.size() + s->nontree.size(),
                       __ATOMIC_RELAXED);
  });
  return total;
}

std::string leveled_adjacency::check_positions(const edge_dict& dict,
                                               int level) const {
  std::string err;
  slots_.for_each([&](uint64_t key, vertex_slot* const& s) {
    vertex_id u = static_cast<vertex_id>(key);
    for (int kind = 0; kind < 2; ++kind) {
      const auto& list = kind == 0 ? s->tree : s->nontree;
      for (size_t i = 0; i < list.size(); ++i) {
        edge c = list[i];
        const edge_record* rec = dict.find(edge_key(c));
        if (rec == nullptr) {
          err = "edge in adjacency but not in dictionary";
          return;
        }
        if (rec->level != level) err = "edge level disagrees with its list";
        if ((rec->is_tree != 0) != (kind == 0))
          err = "edge kind disagrees with its list";
        if (rec->pos[c.v == u ? 1 : 0] != i)
          err = "position back-pointer mismatch";
      }
    }
  });
  return err;
}

}  // namespace bdc
