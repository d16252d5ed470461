#include "ett/blocked_ett.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <unordered_set>

#include "ett/link_partition.hpp"
#include "ett/tour_entry.hpp"
#include "obs/telemetry.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/semisort.hpp"

namespace bdc {

namespace {

/// `ett.relabeled_blocks`: block owners rewritten by link (the guest's
/// blocks) and cut (the new tour's blocks), the O(size / B) term of a
/// blocked splice.
obs::counter& relabeled_blocks() {
  static obs::counter& c =
      obs::metric_registry::global().get_counter("ett.relabeled_blocks");
  return c;
}

}  // namespace

/// Per-splice seam bookkeeping: rebalance candidates and merge-freed
/// blocks. One splice touches at most ~6 seam blocks, and rebalancing a
/// candidate absorbs sub-floor seam blocks plus at most one
/// floor-satisfying neighbor, so 16 slots bound both lists; the assert
/// backstops the bound under the fuzz suites.
struct blocked_ett::seam_blocks {
  block* items[16];
  uint32_t n = 0;
  void push(block* b) {
    assert(n < 16 && "seam block bound exceeded");
    items[n++] = b;
  }
  [[nodiscard]] bool contains(const block* b, uint32_t limit) const {
    for (uint32_t i = 0; i < limit; ++i)
      if (items[i] == b) return true;
    return false;
  }
  [[nodiscard]] bool contains(const block* b) const {
    return contains(b, n);
  }
};

blocked_ett::blocked_ett(vertex_id n)
    : n_(n), arcs_(64), dir_(n, pool_) {}

blocked_ett::block* blocked_ett::new_block(tour* owner, uint32_t cap) {
  static_assert(sizeof(block) == block_bytes(kBlockCap),
                "a full block is 512 bytes: eight cache lines");
  static_assert(sizeof(block) <= node_pool::kMaxBytes);
  static_assert(offsetof(block, tags) == kBlockHeaderBytes);
  static_assert(block_bytes(kClassCaps[0]) % node_pool::kGranularity == 0);
  assert(cap == class_cap(cap));
  // The constructor writes only the header, so a short allocation holds
  // the object up to its `cap` tags.
  block* b = new (pool_.allocate(block_bytes(cap))) block;
  b->cap = static_cast<uint16_t>(cap);
  b->owner = owner;
  return b;
}

blocked_ett::tour* blocked_ett::new_tour() {
  static_assert(sizeof(tour) <= node_pool::kMaxBytes);
  return new (pool_.allocate(sizeof(tour))) tour;
}

void blocked_ett::free_block(block* b) {
  static_assert(std::is_trivially_destructible_v<block>);
  pool_.deallocate(static_cast<void*>(b), block_bytes(b->cap));
}

void blocked_ett::free_tour(tour* t) {
  static_assert(std::is_trivially_destructible_v<tour>);
  pool_.deallocate(static_cast<void*>(t), sizeof(tour));
}

blocked_ett::vslot& blocked_ett::ensure_slot(vertex_id v) {
  return dir_.activate(v, [](vslot& s) {
    s.tree_edges = 0;
    s.nontree_edges = 0;
    s.vloc = nullptr;
  });
}

ett_counts blocked_ett::own_of(vertex_id v) const {
  vslot* s = slot(v);
  assert(s != nullptr && "tour sentinel without a directory slot");
  return s->own();
}

void blocked_ett::maybe_release_slot(vertex_id v, vslot& s) {
  if (s.tree_edges == 0 && s.nontree_edges == 0 &&
      s.vloc == nullptr)
    dir_.deactivate(v);
}

blocked_ett::tour* blocked_ett::tour_of(vertex_id v) const {
  vslot* s = slot(v);
  block* b = s == nullptr ? nullptr : s->vloc;
  return b == nullptr ? nullptr : b->owner;
}

blocked_ett::tour* blocked_ett::materialize(vertex_id v) {
  vslot& s = ensure_slot(v);
  assert(s.vloc == nullptr);
  tour* t = new_tour();
  block* b = new_block(t, kClassCaps[0]);
  b->prev = b->next = b;
  b->tags[0] = static_cast<uint64_t>(v);
  b->count = 1;
  b->agg = s.own();
  t->head = b;
  t->agg = s.own();
  t->nentries = 1;
  t->nblocks = 1;
  s.vloc = b;
  return t;
}

uint32_t blocked_ett::index_in_block(const block* b, uint64_t tag) {
  for (uint32_t i = 0; i < b->count; ++i)
    if (b->tags[i] == tag) return i;
  assert(false && "entry not in its registered block");
  return 0;
}

ett_counts blocked_ett::sum_own(const uint64_t* tags, uint32_t m) const {
  ett_counts agg{};
  for (uint32_t i = 0; i < m; ++i)
    if (!is_arc_tag(tags[i]))
      agg = agg + own_of(static_cast<vertex_id>(tags[i]));
  return agg;
}

void blocked_ett::reregister(block* b, uint32_t from, uint32_t to) {
  to = std::min<uint32_t>(to, b->count);
  for (uint32_t i = from; i < to; ++i) {
    uint64_t tag = b->tags[i];
    if (!is_arc_tag(tag)) {
      vslot* s = slot(static_cast<vertex_id>(tag));
      assert(s != nullptr && "tour sentinel without a directory slot");
      s->vloc = b;
      continue;
    }
    edge e{arc_tag_tail(tag), arc_tag_head(tag)};
    edge c = e.canonical();
    arc_loc* loc = arcs_.find(edge_key(c));
    assert(loc != nullptr && "arc entry for an unregistered edge");
    (e.u == c.u ? loc->fwd : loc->rev) = b;
  }
}

void blocked_ett::resize_single(tour* t, uint32_t cap) {
  block* old = t->head;
  assert(t->nblocks == 1 && old->count <= cap);
  if (old->cap == cap) return;
  block* b = new_block(t, cap);
  b->prev = b->next = b;
  b->count = old->count;
  b->agg = old->agg;
  std::memcpy(b->tags, old->tags, old->count * sizeof(uint64_t));
  t->head = b;
  reregister(b);
  free_block(old);
}

blocked_ett::block* blocked_ett::split_at(block* b, uint32_t i) {
  assert(i <= b->count);
  assert(b->cap == kBlockCap && "short blocks are never split");
  if (i == 0) return b;
  if (i == b->count) return b->next;
  tour* t = b->owner;
  block* nb = new_block(t);
  nb->count = b->count - i;
  std::memcpy(nb->tags, b->tags + i, nb->count * sizeof(uint64_t));
  b->count = i;
  nb->next = b->next;
  nb->prev = b;
  b->next->prev = nb;
  b->next = nb;
  ++t->nblocks;
  nb->agg = sum_own(nb->tags, nb->count);
  b->agg = b->agg - nb->agg;
  reregister(nb);
  return nb;
}

void blocked_ett::append_entries(block* b, const uint64_t* tags, uint32_t m) {
  assert(b->count + m <= b->cap);
  std::memcpy(b->tags + b->count, tags, m * sizeof(uint64_t));
  b->count += m;
  b->agg = b->agg + sum_own(tags, m);
}

void blocked_ett::prepend_entry(block* b, uint64_t tag) {
  assert(b->count < b->cap);
  std::memmove(b->tags + 1, b->tags, b->count * sizeof(uint64_t));
  b->tags[0] = tag;
  ++b->count;
  if (!is_arc_tag(tag)) b->agg = b->agg + own_of(static_cast<vertex_id>(tag));
}

void blocked_ett::rebalance(block* b, seam_blocks& dead) {
  tour* t = b->owner;
  while (t->nblocks > 1 && b->count < kMinFill) {
    block* nb = b->next;
    assert(nb != b);
    if (b->count + nb->count <= kBlockCap) {
      // Merge nb into b wholesale.
      const uint32_t from = b->count;
      std::memcpy(b->tags + b->count, nb->tags,
                  nb->count * sizeof(uint64_t));
      b->count += nb->count;
      b->agg = b->agg + nb->agg;
      b->next = nb->next;
      nb->next->prev = b;
      --t->nblocks;
      if (t->head == nb) t->head = b;
      // Entries that lived in nb now live in b.
      reregister(b, from, b->count);
      dead.push(nb);
      free_block(nb);
    } else {
      // Borrow from the front of nb so both end up at least half full.
      uint32_t total = b->count + nb->count;
      uint32_t take = total / 2 - b->count;
      assert(take > 0 && take < nb->count);
      const ett_counts moved = sum_own(nb->tags, take);
      std::memcpy(b->tags + b->count, nb->tags, take * sizeof(uint64_t));
      std::memmove(nb->tags, nb->tags + take,
                   (nb->count - take) * sizeof(uint64_t));
      b->agg = b->agg + moved;
      nb->agg = nb->agg - moved;
      b->count += take;
      nb->count -= take;
      reregister(b, b->count - take, b->count);
      return;
    }
  }
}

void blocked_ett::rebalance_candidates(const seam_blocks& cands,
                                       seam_blocks& dead) {
  for (uint32_t i = 0; i < cands.n; ++i) {
    block* c = cands.items[i];
    if (cands.contains(c, i)) continue;  // duplicate candidate
    if (dead.contains(c)) continue;  // freed by an earlier merge
    rebalance(c, dead);
  }
}

void blocked_ett::set_arc_blocks(edge e, block* fwd_holder,
                                 block* rev_holder) {
  // fwd/rev are oriented by the canonical edge; e is (tail, head) of the
  // arc placed in fwd_holder.
  edge c = e.canonical();
  arc_loc* loc = arcs_.find(edge_key(c));
  assert(loc != nullptr && "arc placeholder missing");
  if (e.u == c.u) {
    loc->fwd = fwd_holder;
    loc->rev = rev_holder;
  } else {
    loc->fwd = rev_holder;
    loc->rev = fwd_holder;
  }
}

void blocked_ett::collapse_singleton(tour* t, seam_blocks& dead) {
  assert(t->nentries == 1 && t->nblocks == 1);
  block* b = t->head;
  assert(b->count == 1 && !is_arc_tag(b->tags[0]));
  const vertex_id v = static_cast<vertex_id>(b->tags[0]);
  vslot* s = slot(v);
  assert(s != nullptr);
  if (s == nullptr) return;  // unreachable: v's tour entry implies a slot
  s->vloc = nullptr;
  dead.push(b);
  free_block(b);
  free_tour(t);
  // Last level-i edge gone and no counters left: reclaim the slot (the
  // vertex reps as singleton_rep(v) from here on either way).
  maybe_release_slot(v, *s);
}

// ---------------------------------------------------------------------
// Link: splice the guest's cycle (rotated to start at its sentinel) plus
// the two arc entries into the host's cycle right after the host's
// sentinel. The larger side hosts, so owner relabelling touches only the
// smaller side's blocks. When the joined tour fits one block, the splice
// is an array insert into the host's block instead.
// ---------------------------------------------------------------------

void blocked_ett::link_within_block(tour* th, vertex_id h, vertex_id g,
                                    tour* tg) {
  block* bh = th->head;
  const uint32_t at = index_in_block(bh, h) + 1;
  // The inserted run: h->g, the guest's tour rotated to start at g, g->h.
  uint64_t run[kBlockCap];
  uint32_t m = 0;
  run[m++] = arc_tag(h, g);
  ett_counts guest_agg;
  if (tg == nullptr) {
    guest_agg = ensure_slot(g).own();
    run[m++] = static_cast<uint64_t>(g);
  } else {
    const block* bg = tg->head;
    const uint32_t gi = index_in_block(bg, g);
    std::memcpy(run + m, bg->tags + gi, (bg->count - gi) * sizeof(uint64_t));
    m += bg->count - gi;
    std::memcpy(run + m, bg->tags, gi * sizeof(uint64_t));
    m += gi;
    guest_agg = tg->agg;
  }
  run[m++] = arc_tag(g, h);

  const uint32_t total = bh->count + m;
  block* b = bh;
  if (total > bh->cap) {  // outgrew the class: move to the one that fits
    b = new_block(th, class_cap(total));
    b->prev = b->next = b;
    std::memcpy(b->tags, bh->tags, at * sizeof(uint64_t));
    std::memcpy(b->tags + at + m, bh->tags + at,
                (bh->count - at) * sizeof(uint64_t));
  } else {
    std::memmove(b->tags + at + m, b->tags + at,
                 (b->count - at) * sizeof(uint64_t));
  }
  std::memcpy(b->tags + at, run, m * sizeof(uint64_t));
  b->count = static_cast<uint16_t>(total);
  b->agg = bh->agg + guest_agg;
  th->head = b;
  th->agg = th->agg + guest_agg;
  th->nentries = total;
  if (b == bh) {
    reregister(b, at, at + m);
  } else {
    reregister(b);
    free_block(bh);
  }
  if (tg != nullptr) {
    relabeled_blocks().add(1);
    free_block(tg->head);
    free_tour(tg);
  }
}

void blocked_ett::link_one(vertex_id u, vertex_id v) {
  tour* tu = tour_of(u);
  tour* tv = tour_of(v);
  uint64_t su = tu == nullptr ? 1 : tu->agg.vertices;
  uint64_t sv = tv == nullptr ? 1 : tv->agg.vertices;
  vertex_id h = u, g = v;
  tour* th = tu;
  tour* tg = tv;
  if (sv > su) {
    std::swap(h, g);
    std::swap(th, tg);
  }
  if (th == nullptr) th = materialize(h);
  if (th->nblocks == 1 && (tg == nullptr || tg->nblocks == 1) &&
      th->nentries + (tg == nullptr ? 1 : tg->nentries) + 2 <= kBlockCap) {
    link_within_block(th, h, g, tg);
    return;
  }
  // The splice below splits and seams blocks, which needs full-size ones;
  // only a one-block tour can hold a short block.
  if (th->nblocks == 1) resize_single(th, kBlockCap);
  if (tg != nullptr && tg->nblocks == 1) resize_single(tg, kBlockCap);
  const uint64_t hg = arc_tag(h, g);
  const uint64_t gh = arc_tag(g, h);

  block* bh = slot(h)->vloc;
  block* right = split_at(bh, index_in_block(bh, h) + 1);

  seam_blocks dead;
  seam_blocks cands;
  cands.push(bh);
  cands.push(right);

  if (tg == nullptr) {
    // Guest is a singleton: activate it (links must activate even when no
    // level-i adjacency counters exist — F_i carries tree edges of lower
    // levels too) and splice the inline triple [h->g, s_g, g->h].
    vslot& sg = ensure_slot(g);
    const uint64_t triple[3] = {hg, static_cast<uint64_t>(g), gh};
    block* holder;
    if (bh->count + 3u <= kBlockCap) {
      holder = bh;
      append_entries(bh, triple, 3);
    } else {
      holder = new_block(th);
      append_entries(holder, triple, 3);
      holder->prev = bh;
      holder->next = right;
      bh->next = holder;
      right->prev = holder;
      ++th->nblocks;
      cands.push(holder);
    }
    sg.vloc = holder;
    set_arc_blocks(edge{h, g}, holder, holder);
    th->agg = th->agg + sg.own();
    th->nentries += 3;
  } else {
    // Rotate the guest cycle so it starts at g's sentinel.
    block* bg = slot(g)->vloc;
    block* gstart = split_at(bg, index_in_block(bg, g));
    block* gend = gstart->prev;
    // Relabel the guest's blocks while the cycle is still closed.
    for (block* cur = gstart;;) {
      cur->owner = th;
      cur = cur->next;
      if (cur == gstart) break;
    }
    relabeled_blocks().add(tg->nblocks);
    // Place the two arc entries adjacent to the splice seams.
    block* a1 = nullptr;  // holds h->g unless packed into bh / gstart
    block* hg_holder;
    if (bh->count < kBlockCap) {
      append_entries(bh, &hg, 1);
      hg_holder = bh;
    } else if (gstart->count < kBlockCap) {
      prepend_entry(gstart, hg);
      hg_holder = gstart;
    } else {
      a1 = new_block(th);
      append_entries(a1, &hg, 1);
      hg_holder = a1;
      cands.push(a1);
    }
    block* a2 = nullptr;  // holds g->h unless packed into gend
    block* gh_holder;
    if (gend->count < kBlockCap) {
      append_entries(gend, &gh, 1);
      gh_holder = gend;
    } else {
      a2 = new_block(th);
      append_entries(a2, &gh, 1);
      gh_holder = a2;
      cands.push(a2);
    }
    // Splice: bh -> (a1?) -> gstart .. gend -> (a2?) -> right.
    block* first = a1 != nullptr ? a1 : gstart;
    block* last = a2 != nullptr ? a2 : gend;
    if (a1 != nullptr) {
      a1->next = gstart;
      gstart->prev = a1;
    }
    if (a2 != nullptr) {
      gend->next = a2;
      a2->prev = gend;
    }
    bh->next = first;
    first->prev = bh;
    last->next = right;
    right->prev = last;
    set_arc_blocks(edge{h, g}, hg_holder, gh_holder);
    th->agg = th->agg + tg->agg;
    th->nentries += tg->nentries + 2;
    th->nblocks += tg->nblocks + (a1 != nullptr) + (a2 != nullptr);
    free_tour(tg);
    cands.push(gstart);
    cands.push(gend);
  }

  rebalance_candidates(cands, dead);
}

// ---------------------------------------------------------------------
// Cut: isolate the edge's two arc entries at block boundaries, unlink
// them, and re-close the two complementary arcs of the cycle into
// separate tours. The segment strictly between (u->v) and (v->u) is
// exactly the tour of v's subtree; whichever side has fewer blocks takes
// the new descriptor. A one-block tour is cut by copying its two runs
// out instead.
// ---------------------------------------------------------------------

void blocked_ett::cut_within_block(tour* t, uint64_t fwd_tag,
                                   uint64_t rev_tag) {
  block* b = t->head;
  const uint32_t n = b->count;
  const uint32_t fi = index_in_block(b, fwd_tag);
  const uint32_t ri = index_in_block(b, rev_tag);
  // The two cyclic runs strictly between the arcs, each a closed tour.
  uint64_t run[2][kBlockCap];
  uint32_t len[2] = {0, 0};
  for (uint32_t i = (fi + 1) % n; i != ri; i = (i + 1) % n)
    run[0][len[0]++] = b->tags[i];
  for (uint32_t i = (ri + 1) % n; i != fi; i = (i + 1) % n)
    run[1][len[1]++] = b->tags[i];
  // The longer run keeps t (and b, when its class still fits); the other
  // takes a fresh descriptor.
  const int keep = len[0] >= len[1] ? 0 : 1;
  bool b_reused = false;
  for (int side : {keep, 1 - keep}) {
    const uint32_t m = len[side];
    if (m == 1) {  // a lone vertex reverts to the implicit singleton
      const vertex_id x = static_cast<vertex_id>(run[side][0]);
      vslot* sx = slot(x);
      sx->vloc = nullptr;
      maybe_release_slot(x, *sx);
      if (side == keep) free_tour(t);
      continue;
    }
    tour* owner = t;
    if (side != keep) {
      owner = new_tour();
      relabeled_blocks().add(1);
    }
    block* nb = b;
    if (side != keep || class_cap(m) != b->cap) {
      nb = new_block(owner, class_cap(m));
      nb->prev = nb->next = nb;
    } else {
      b_reused = true;
    }
    std::memcpy(nb->tags, run[side], m * sizeof(uint64_t));
    nb->count = static_cast<uint16_t>(m);
    nb->agg = sum_own(nb->tags, m);
    owner->head = nb;
    owner->agg = nb->agg;
    owner->nentries = m;
    owner->nblocks = 1;
    if (nb != b) reregister(nb);
  }
  if (!b_reused) free_block(b);
}

void blocked_ett::cut_one(edge e) {
  const uint64_t key = edge_key(e.canonical());
  arc_loc* loc = arcs_.find(key);
  assert(loc != nullptr && "cut: edge not in forest");
  const uint64_t fwd_tag = arc_tag(e.canonical().u, e.canonical().v);
  const uint64_t rev_tag = arc_tag(e.canonical().v, e.canonical().u);
  if (tour* t = loc->fwd->owner;
      t->nblocks == 1) {
    cut_within_block(t, fwd_tag, rev_tag);
    return;
  }

  // Isolate each arc in a single-entry block. Splits re-register moved
  // entries, so re-read the location before isolating the second arc.
  block* bf = loc->fwd;
  uint32_t fi = index_in_block(bf, fwd_tag);
  split_at(bf, fi + 1);
  block* af = split_at(bf, fi);
  assert(af->count == 1 && af->tags[0] == fwd_tag);

  block* br = loc->rev;
  uint32_t ri = index_in_block(br, rev_tag);
  split_at(br, ri + 1);
  block* ar = split_at(br, ri);
  assert(ar->count == 1 && ar->tags[0] == rev_tag);

  tour* t = af->owner;
  assert(ar->owner == t);
  // The subtree side (between fwd and rev) and the remainder are both
  // non-empty: each contains at least one sentinel.
  block* s2h = af->next;
  block* s2t = ar->prev;
  block* s1h = ar->next;
  block* s1t = af->prev;
  assert(s2h != ar && s1h != af);

  // Close the two cycles.
  s2t->next = s2h;
  s2h->prev = s2t;
  s1t->next = s1h;
  s1h->prev = s1t;

  // Walk both cycles in lockstep: the one that closes first has fewer
  // blocks and becomes the new tour, so relabelling costs O(min side / B).
  block* small = s2h;
  for (block *a = s2h->next, *b = s1h->next;; a = a->next, b = b->next) {
    if (a == s2h) break;
    if (b == s1h) {
      small = s1h;
      break;
    }
  }
  block* large = small == s2h ? s1h : s2h;
  tour* t2 = new_tour();
  t2->head = small;
  for (block* cur = small;;) {
    cur->owner = t2;
    t2->agg = t2->agg + cur->agg;
    t2->nentries += cur->count;
    ++t2->nblocks;
    cur = cur->next;
    if (cur == small) break;
  }
  relabeled_blocks().add(t2->nblocks);
  t->head = large;
  t->agg = t->agg - t2->agg;
  t->nentries -= t2->nentries + 2;
  t->nblocks -= t2->nblocks + 2;

  seam_blocks dead;
  free_block(af);
  free_block(ar);
  dead.push(af);
  dead.push(ar);

  // Collapse one-vertex remainders to implicit singletons; rebalance the
  // seam blocks of the survivors, then move a survivor left with one
  // block down to the size class that fits it.
  seam_blocks cands;
  tour* survivors[2] = {nullptr, nullptr};
  for (auto [side, head] : {std::pair{t2, small}, std::pair{t, large}}) {
    if (side->nentries == 1) {
      collapse_singleton(side, dead);
    } else {
      cands.push(head);
      cands.push(head->prev);
      survivors[side == t] = side;
    }
  }
  rebalance_candidates(cands, dead);
  for (tour* side : survivors)
    if (side != nullptr && side->nblocks == 1)
      resize_single(side, class_cap(side->nentries));
}

void blocked_ett::add_counts_one(const count_delta& d) {
  // First positive delta on an untouched vertex activates it; a delta
  // that zeroes the counters of a tourless vertex reclaims the slot.
  vslot& s = ensure_slot(d.v);
  assert(static_cast<int64_t>(s.tree_edges) + d.tree_delta >= 0);
  assert(static_cast<int64_t>(s.nontree_edges) + d.nontree_delta >= 0);
  s.tree_edges = static_cast<uint32_t>(
      static_cast<int64_t>(s.tree_edges) + d.tree_delta);
  s.nontree_edges = static_cast<uint32_t>(
      static_cast<int64_t>(s.nontree_edges) + d.nontree_delta);
  if (block* b = s.vloc; b != nullptr) {
    auto apply = [&](ett_counts& c) {
      c.tree_edges = static_cast<uint32_t>(
          static_cast<int64_t>(c.tree_edges) + d.tree_delta);
      c.nontree_edges = static_cast<uint32_t>(
          static_cast<int64_t>(c.nontree_edges) + d.nontree_delta);
    };
    apply(b->agg);
    apply(b->owner->agg);
  } else {
    maybe_release_slot(d.v, s);
  }
}

// ---------------------------------------------------------------------
// Batch surface. Mutations run in phases: read-only resolution of the
// touched tours, a partition of the batch into groups over disjoint
// tours, then concurrent per-group sequential splices. Arc-map phase
// safety: placeholders for new edges are inserted in a dedicated phase
// up front, group processing only reads slots and updates values of its
// own keys, and cut erasures happen in one batch after every group has
// finished.
// ---------------------------------------------------------------------

// Each mutating batch records one phase span; the empty-batch guard keeps
// the no-op calls that pepper the level loop out of the histograms (a
// span on a 0-edge batch is pure noise).
void blocked_ett::batch_link(std::span<const edge> links) {
  size_t k = links.size();
  if (k == 0) return;
  BDC_PHASE_SPAN(sp, "ett.batch_link");
  arcs_.reserve_for(k);
  if (k < kParallelMutationCutoff || num_workers() <= 1) {
    for (const edge& e : links) {
      arcs_.insert(edge_key(e.canonical()), arc_loc{});
      link_one(e.u, e.v);
    }
    return;
  }

  // Phase 1 (read-only, parallel): resolve each endpoint's component rep.
  auto& rep_u = scratch_.rep_u;
  auto& rep_v = scratch_.rep_v;
  rep_u.resize(k);
  rep_v.resize(k);
  parallel_for(0, k, [&](size_t i) {
    rep_u[i] = reinterpret_cast<uintptr_t>(find_rep(links[i].u));
    rep_v[i] = reinterpret_cast<uintptr_t>(find_rep(links[i].v));
  });

  // Phase 2 (parallel): arc-map placeholders for the new edges (inserts
  // of distinct keys are phase-safe).
  parallel_for(0, k, [&](size_t i) {
    arcs_.insert(edge_key(links[i].canonical()), arc_loc{});
  });

  // Phase 3: partition the batch into groups whose merged components
  // are disjoint (ett/link_partition.hpp). All-distinct fast path: each
  // link is a singleton group.
  auto part = partition_links(rep_u, rep_v);
  if (part.all_distinct) {
    parallel_for(
        0, k, [&](size_t i) { link_one(links[i].u, links[i].v); },
        kWalkGrain);
    return;
  }
  auto& groups = part.groups;

  // Phase 4 (parallel over groups): sequential splices within a group.
  parallel_for(
      0, groups.num_groups(),
      [&](size_t gi) {
        for (uint32_t j = groups.group_starts[gi];
             j < groups.group_starts[gi + 1]; ++j) {
          const edge& e = links[groups.records[j].second];
          link_one(e.u, e.v);
        }
      },
      kWalkGrain);
}

void blocked_ett::batch_cut(std::span<const edge> cuts) {
  size_t c = cuts.size();
  if (c == 0) return;
  BDC_PHASE_SPAN(sp, "ett.batch_cut");
  auto& keys = scratch_.keys;
  keys.resize(c);
  if (c < kParallelMutationCutoff || num_workers() <= 1) {
    for (size_t i = 0; i < c; ++i) {
      keys[i] = edge_key(cuts[i].canonical());
      cut_one(cuts[i]);
    }
    arcs_.erase_batch(keys);
    dir_.sweep_pending();
    return;
  }

  // Phase 1 (read-only, parallel): resolve each cut's tour.
  std::vector<std::pair<uint64_t, uint32_t>> keyed(c);
  parallel_for(0, c, [&](size_t i) {
    keys[i] = edge_key(cuts[i].canonical());
    const arc_loc* loc = arcs_.find(keys[i]);
    assert(loc != nullptr && "batch_cut: edge not in forest");
    keyed[i] = {static_cast<uint64_t>(reinterpret_cast<uintptr_t>(
                    loc->fwd->owner)),
                static_cast<uint32_t>(i)};
  });

  // Phase 2: group by tour; disjoint tours mutate concurrently.
  auto groups = group_by_key(std::move(keyed));
  parallel_for(
      0, groups.num_groups(),
      [&](size_t gi) {
        for (uint32_t j = groups.group_starts[gi];
             j < groups.group_starts[gi + 1]; ++j)
          cut_one(cuts[groups.records[j].second]);
      },
      kWalkGrain);

  // Phase 3: drop the arc records in one erase phase, then free the
  // directory chunks the groups emptied (deferred: a group running in
  // parallel with the deactivation may have been activating a sibling
  // slot of the same chunk).
  arcs_.erase_batch(keys);
  dir_.sweep_pending();
}

void blocked_ett::batch_add_counts(std::span<const count_delta> deltas) {
  size_t k = deltas.size();
  if (k == 0) return;
  BDC_PHASE_SPAN(sp, "ett.batch_add_counts");
  if (k < kParallelMutationCutoff || num_workers() <= 1) {
    for (const count_delta& d : deltas) add_counts_one(d);
    dir_.sweep_pending();
    return;
  }
  // Deltas on one tour contend on the block/tour aggregates; group by
  // component rep (singletons get unique reps) and fan out over groups.
  std::vector<std::pair<uint64_t, uint32_t>> keyed(k);
  parallel_for(0, k, [&](size_t i) {
    keyed[i] = {
        static_cast<uint64_t>(reinterpret_cast<uintptr_t>(find_rep(
            deltas[i].v))),
        static_cast<uint32_t>(i)};
  });
  auto groups = group_by_key(std::move(keyed));
  parallel_for(
      0, groups.num_groups(),
      [&](size_t gi) {
        for (uint32_t j = groups.group_starts[gi];
             j < groups.group_starts[gi + 1]; ++j)
          add_counts_one(deltas[groups.records[j].second]);
      },
      kWalkGrain);
  dir_.sweep_pending();
}

// ---------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------

ett_rep blocked_ett::find_rep(vertex_id v) const {
  vslot* s = slot(v);
  block* b = s == nullptr ? nullptr : s->vloc;
  return b == nullptr
             ? singleton_rep(v)
             : static_cast<ett_rep>(b->owner);
}

bool blocked_ett::connected(vertex_id u, vertex_id v) const {
  return find_rep(u) == find_rep(v);
}

std::vector<ett_rep> blocked_ett::batch_find_rep(
    std::span<const vertex_id> vs) const {
  std::vector<ett_rep> out(vs.size());
  parallel_for(0, vs.size(), [&](size_t i) { out[i] = find_rep(vs[i]); });
  return out;
}

ett_counts blocked_ett::component_counts(vertex_id v) const {
  vslot* s = slot(v);
  if (s == nullptr) return ett_counts{1, 0, 0};  // never touched: singleton
  block* b = s->vloc;
  return b == nullptr ? s->own()
                      : b->owner->agg;
}

ett_counts blocked_ett::vertex_counts(vertex_id v) const {
  vslot* s = slot(v);
  return s == nullptr ? ett_counts{1, 0, 0} : s->own();
}

std::vector<std::pair<vertex_id, uint32_t>> blocked_ett::fetch_counted(
    vertex_id v, uint64_t want, bool nontree) const {
  std::vector<std::pair<vertex_id, uint32_t>> out;
  if (want == 0) return out;
  vslot* s = slot(v);
  block* b0 = s == nullptr ? nullptr : s->vloc;
  if (b0 == nullptr) {  // singleton component (inactive: zero counters)
    uint64_t own = s == nullptr ? 0 : slot_count(s->own(), nontree);
    if (own > 0)
      out.emplace_back(v, static_cast<uint32_t>(std::min(own, want)));
    return out;
  }
  // Stream the cycle in tour order, skipping blocks whose aggregate holds
  // no slots of the requested kind.
  uint64_t left = want;
  block* start = b0->owner->head;
  for (block* cur = start; left > 0;) {
    if (slot_count(cur->agg, nontree) > 0) {
      for (uint32_t i = 0; i < cur->count && left > 0; ++i) {
        uint64_t tag = cur->tags[i];
        if (is_arc_tag(tag)) continue;
        uint64_t own = slot_count(own_of(static_cast<vertex_id>(tag)),
                                  nontree);
        if (own == 0) continue;
        uint64_t take = std::min(own, left);
        out.emplace_back(static_cast<vertex_id>(tag),
                         static_cast<uint32_t>(take));
        left -= take;
      }
    }
    cur = cur->next;
    if (cur == start) break;
  }
  return out;
}

std::vector<std::pair<vertex_id, uint32_t>> blocked_ett::fetch_nontree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/true);
}

std::vector<std::pair<vertex_id, uint32_t>> blocked_ett::fetch_tree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/false);
}

std::vector<vertex_id> blocked_ett::component_vertices(vertex_id v) const {
  vslot* s = slot(v);
  block* b0 = s == nullptr ? nullptr : s->vloc;
  if (b0 == nullptr) return {v};
  tour* t = b0->owner;
  std::vector<vertex_id> out;
  out.reserve(t->agg.vertices);
  block* start = t->head;
  for (block* cur = start;;) {
    for (uint32_t i = 0; i < cur->count; ++i)
      if (!is_arc_tag(cur->tags[i]))
        out.push_back(static_cast<vertex_id>(cur->tags[i]));
    cur = cur->next;
    if (cur == start) break;
  }
  return out;
}

// ---------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------

std::string blocked_ett::check_consistency() const {
  // Directory invariants first: chunk occupancy bookkeeping, then the
  // activation contract — a slot exists iff some level-i edge still
  // touches its vertex (a tourless slot with zero edge counters is an
  // activation leak: maybe_release_slot should have reclaimed it).
  if (std::string err = dir_.check_consistency(); !err.empty()) return err;
  std::vector<std::pair<vertex_id, const vslot*>> active;
  active.reserve(dir_.active_count());
  dir_.for_each_active(
      [&](vertex_id v, const vslot& s) { active.emplace_back(v, &s); });

  std::unordered_set<const tour*> seen;
  size_t reachable_arcs = 0;
  for (auto [v, s] : active) {
    block* b0 = s->vloc;
    if (b0 == nullptr) {
      if (s->tree_edges == 0 && s->nontree_edges == 0)
        return "activation leak: tourless slot with zero edge counters";
      continue;  // singleton with non-tree edges only
    }
    const tour* t = b0->owner;
    if (t == nullptr) return "block without owner";
    if (!seen.insert(t).second) continue;

    // Walk the cycle once: chain coherence, occupancy, aggregates.
    ett_counts total{};
    uint64_t entries = 0;
    uint32_t blocks = 0;
    std::vector<uint64_t> tags;
    const block* start = t->head;
    if (start == nullptr) return "tour without head block";
    for (const block* cur = start;;) {
      if (cur->owner != t)
        return "block owner mismatch";
      if (cur->next->prev != cur || cur->prev->next != cur)
        return "block chain broken";
      if (cur->count == 0 || cur->count > cur->cap)
        return "block count out of range";
      if (cur->cap != class_cap(cur->cap))
        return "block capacity is not a size class";
      if (cur->cap != kBlockCap && t->nblocks > 1)
        return "short block in a multi-block tour";
      ett_counts agg{};
      for (uint32_t i = 0; i < cur->count; ++i) {
        uint64_t tag = cur->tags[i];
        if (!is_arc_tag(tag)) {
          const vslot* st = slot(static_cast<vertex_id>(tag));
          if (st == nullptr) return "tour sentinel for an inactive vertex";
          agg = agg + st->own();
        }
        tags.push_back(tag);
      }
      if (!(agg == cur->agg)) return "block aggregate mismatch";
      total = total + agg;
      entries += cur->count;
      ++blocks;
      cur = cur->next;
      if (cur == start) break;
    }
    if (blocks != t->nblocks) return "tour block count mismatch";
    if (entries != t->nentries) return "tour entry count mismatch";
    if (!(total == t->agg)) return "tour aggregate mismatch";
    if (entries != 3 * static_cast<uint64_t>(total.vertices) - 2)
      return "tour length mismatch";
    if (blocks > 1) {
      for (const block* cur = start;;) {
        if (cur->count < kMinFill) return "block occupancy below floor";
        cur = cur->next;
        if (cur == start) break;
      }
    }

    // Tour orientation: the packed sequence must be a closed Euler walk,
    // every sentinel registered in vloc_, every arc registered (with this
    // block) in the arc map.
    for (size_t i = 0; i < tags.size(); ++i) {
      uint64_t tag = tags[i];
      uint64_t next = tags[(i + 1) % tags.size()];
      if (tag_head(tag) != tag_tail(next)) {
        return "tour orientation broken at position " + std::to_string(i) +
               ": " + std::to_string(tag_tail(tag)) + "->" +
               std::to_string(tag_head(tag)) + " then " +
               std::to_string(tag_tail(next)) + "->" +
               std::to_string(tag_head(next));
      }
      if (!is_arc_tag(tag)) {
        vertex_id x = static_cast<vertex_id>(tag);
        if (x >= n_) return "sentinel for an unknown vertex";
        // Registration is checked block-by-block below via the slots.
        continue;
      }
      ++reachable_arcs;
      edge e{arc_tag_tail(tag), arc_tag_head(tag)};
      const arc_loc* loc = arcs_.find(edge_key(e.canonical()));
      if (loc == nullptr) return "arc entry for an unregistered edge";
    }
    // Slot registration: each sentinel's registered block contains it.
    for (const block* cur = start;;) {
      for (uint32_t i = 0; i < cur->count; ++i) {
        uint64_t tag = cur->tags[i];
        if (is_arc_tag(tag)) continue;
        const vslot* st = slot(static_cast<vertex_id>(tag));
        if (st == nullptr || st->vloc != cur)
          return "sentinel registered in the wrong block";
      }
      cur = cur->next;
      if (cur == start) break;
    }
  }

  // Every registered arc pair must be reachable and point at blocks that
  // really contain the arcs.
  std::string err;
  for (auto& [key, loc] : arcs_.entries()) {
    edge c = edge_from_key(key);
    uint64_t fwd = arc_tag(c.u, c.v);
    uint64_t rev = arc_tag(c.v, c.u);
    if (loc.fwd == nullptr || loc.rev == nullptr)
      return "arc record with no block";
    if (!seen.count(loc.fwd->owner) ||
        !seen.count(loc.rev->owner))
      return "arc-map block not reachable from any sentinel";
    bool found_f = false, found_r = false;
    for (uint32_t i = 0; i < loc.fwd->count; ++i)
      if (loc.fwd->tags[i] == fwd) found_f = true;
    for (uint32_t i = 0; i < loc.rev->count; ++i)
      if (loc.rev->tags[i] == rev) found_r = true;
    if (!found_f || !found_r) return "arc registered in the wrong block";
  }
  if (reachable_arcs != 2 * arcs_.size())
    return "arc entry count disagrees with the arc map";
  return "";
}

blocked_ett::block_stats blocked_ett::debug_block_stats() const {
  block_stats s;
  s.min_fill = kBlockCap;
  std::unordered_set<const tour*> seen;
  std::vector<const tour*> tours;
  dir_.for_each_active([&](vertex_id, const vslot& vs) {
    block* b0 = vs.vloc;
    if (b0 == nullptr) return;
    const tour* t = b0->owner;
    if (seen.insert(t).second) tours.push_back(t);
  });
  for (const tour* t : tours) {
    ++s.tours;
    const block* start = t->head;
    for (const block* cur = start;;) {
      ++s.blocks;
      s.entries += cur->count;
      s.bytes += block_bytes(cur->cap);
      if (t->nblocks > 1) {
        s.min_fill = std::min<uint32_t>(s.min_fill, cur->count);
        s.max_fill = std::max<uint32_t>(s.max_fill, cur->count);
      }
      cur = cur->next;
      if (cur == start) break;
    }
  }
  if (s.blocks == 0) s.min_fill = 0;
  return s;
}

}  // namespace bdc
