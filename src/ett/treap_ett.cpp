#include "ett/treap_ett.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "ett/link_partition.hpp"
#include "ett/tour_entry.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/parallel_sort.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"

namespace bdc {

namespace {
// Entry encoding: ett/tour_entry.hpp, shared with the other substrates.
uint64_t arc_key(vertex_id t, vertex_id h) { return arc_tag(t, h); }
}  // namespace

treap_ett::treap_ett(vertex_id n, uint64_t seed)
    : rng_(seed), n_(n), arcs_(64), dir_(n, pool_) {}
// Construction is O(n / kSpan) (the directory root table), not O(n):
// sentinels are built on first edge touch (ensure_sentinel) and reclaimed
// when a vertex's last level-i edge leaves (maybe_release_sentinel).

treap_ett::node* treap_ett::make_node(uint64_t tag) {
  return make_node_with_priority(tag, rng_.ith_rand(counter_++));
}

treap_ett::node* treap_ett::make_node_with_priority(uint64_t tag,
                                                    uint64_t priority) {
  static_assert(sizeof(node) <= node_pool::kMaxBytes);
  node* x = new (pool_.allocate(sizeof(node))) node;
  x->tag = tag;
  x->priority = priority;
  return x;
}

void treap_ett::free_node(node* x) {
  static_assert(std::is_trivially_destructible_v<node>);
  pool_.deallocate(static_cast<void*>(x), sizeof(node));
}

treap_ett::node* treap_ett::ensure_sentinel_with_priority(vertex_id v,
                                                          uint64_t priority) {
  if (node* s = sentinel(v)) return s;
  node* s = make_node_with_priority(static_cast<uint64_t>(v), priority);
  s->own.vertices = 1;
  update(s);
  dir_.activate(v, [&](node*& slot) { slot = s; });
  return s;
}

treap_ett::node* treap_ett::ensure_sentinel(vertex_id v) {
  if (node* s = sentinel(v)) return s;
  return ensure_sentinel_with_priority(v, rng_.ith_rand(counter_++));
}

void treap_ett::maybe_release_sentinel(vertex_id v) {
  node* s = sentinel(v);
  if (s == nullptr) return;
  if (s->parent != nullptr || s->subtree_nodes != 1) return;  // in a tour
  if (s->own.tree_edges != 0 || s->own.nontree_edges != 0) return;
  dir_.deactivate(v);
  free_node(s);
}

void treap_ett::update(node* x) {
  x->agg = x->own;
  x->subtree_nodes = 1;
  for (node* c : {x->left, x->right}) {
    if (c == nullptr) continue;
    x->agg = x->agg + c->agg;
    x->subtree_nodes += c->subtree_nodes;
  }
}

treap_ett::node* treap_ett::root_of(node* x) {
  while (x->parent != nullptr) x = x->parent;
  return x;
}

treap_ett::node* treap_ett::merge(node* a, node* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority > b->priority) {
    node* r = merge(a->right, b);
    a->right = r;
    if (r) r->parent = a;
    update(a);
    return a;
  }
  node* l = merge(a, b->left);
  b->left = l;
  if (l) l->parent = b;
  update(b);
  return b;
}

treap_ett::node* treap_ett::join_all(std::span<node* const> segs) {
  if (segs.empty()) return nullptr;
  // Balanced divide-and-conquer join reduction: join is associative on
  // sequences, so any parenthesization yields the same tour; the balanced
  // tree gives O(lg k) join rounds that proceed in parallel.
  return fork_join_reduce<node*>(
      0, segs.size(), /*grain=*/8,
      [&](size_t lo, size_t hi) {
        node* acc = nullptr;
        for (size_t i = lo; i < hi; ++i) acc = merge(acc, segs[i]);
        return acc;
      },
      [](node* a, node* b) { return merge(a, b); });
}

std::pair<treap_ett::node*, treap_ett::node*> treap_ett::split_before(
    node* x) {
  // Left part: everything before x. Right part: x and after.
  node* l = x->left;
  if (l) {
    l->parent = nullptr;
    x->left = nullptr;
    update(x);
  }
  node* r = x;
  node* cur = x;
  node* p = cur->parent;
  cur->parent = nullptr;
  while (p != nullptr) {
    node* gp = p->parent;
    p->parent = nullptr;
    if (p->right == cur) {
      // cur was p's right child: p and its left subtree precede cur.
      p->right = nullptr;
      update(p);
      l = merge(p, l);
    } else {
      // cur was p's left child: p and its right subtree follow cur.
      p->left = nullptr;
      update(p);
      r = merge(r, p);
    }
    cur = p;
    p = gp;
  }
  return {l, r};
}

std::pair<treap_ett::node*, treap_ett::node*> treap_ett::split_after(
    node* x) {
  node* r = x->right;
  if (r) {
    r->parent = nullptr;
    x->right = nullptr;
    update(x);
  }
  node* l = x;
  node* cur = x;
  node* p = cur->parent;
  cur->parent = nullptr;
  while (p != nullptr) {
    node* gp = p->parent;
    p->parent = nullptr;
    if (p->left == cur) {
      // cur was p's left child: p and its right subtree follow cur.
      p->left = nullptr;
      update(p);
      r = merge(r, p);
    } else {
      // cur was p's right child: p and its left subtree precede cur (and
      // everything accumulated in l so far). Accumulating as merge(l, p)
      // here was a latent seed bug: every historical caller passed a node
      // already made leftmost by split_before, so this branch first ran —
      // and first got fuzzed — when the join-based bulk link landed.
      p->right = nullptr;
      update(p);
      l = merge(p, l);
    }
    cur = p;
    p = gp;
  }
  return {l, r};
}

size_t treap_ett::rank_of(node* x) {
  size_t rank = x->left ? x->left->subtree_nodes : 0;
  node* cur = x;
  node* p = x->parent;
  while (p != nullptr) {
    if (p->right == cur) {
      rank += 1 + (p->left ? p->left->subtree_nodes : 0);
    }
    cur = p;
    p = p->parent;
  }
  return rank;
}

treap_ett::node* treap_ett::reroot(vertex_id v) {
  node* s = sentinel(v);
  assert(s != nullptr && "rerooting an inactive vertex");
  auto [before, from] = split_before(s);
  return merge(from, before);
}

void treap_ett::link(vertex_id u, vertex_id v) {
  assert(!connected(u, v));
  ensure_sentinel(u);
  ensure_sentinel(v);
  node* tu = reroot(u);
  node* tv = reroot(v);
  node* uv = make_node(arc_key(u, v));
  node* vu = make_node(arc_key(v, u));
  update(uv);
  update(vu);
  arcs_.reserve_for(1);
  arcs_.insert(edge_key(edge{u, v}.canonical()), {uv, vu});
  merge(merge(tu, uv), merge(tv, vu));
}

void treap_ett::cut(vertex_id u, vertex_id v) {
  uint64_t key = edge_key(edge{u, v}.canonical());
  const arc_nodes* an = arcs_.find(key);
  assert(an != nullptr && "cut: edge not in forest");
  node* a = an->fwd;
  node* b = an->rev;
  arcs_.erase(key);
  if (rank_of(a) > rank_of(b)) std::swap(a, b);
  // Tour = L a M b R  ->  trees (L R) and (M).
  auto [la, xa] = split_before(a);        // la = L, xa = a M b R
  auto [xm, xb] = split_before(b);        // xm = a M, xb = b R
  (void)xa;
  auto [aa, m] = split_after(a);          // aa = a, m = M
  auto [bb, r] = split_after(b);          // bb = b, r = R
  (void)xm;
  (void)xb;
  assert(aa == a && bb == b);
  merge(la, r);
  (void)m;
  free_node(a);
  free_node(b);
  maybe_release_sentinel(u);
  maybe_release_sentinel(v);
}

// ---------------------------------------------------------------------
// Batch surface. Mutations are join-based bulk operations: a read-only
// phase resolves every touched tour, the batch is partitioned into groups
// touching disjoint tours, and groups rebuild their tours concurrently with
// divide-and-conquer join reductions. Small batches (or a 1-worker pool)
// fall back to the sequential split/merge loop, which the batch
// preconditions (acyclic link batches, present distinct cuts) make valid
// in any order. Read-only batches fan out across workers unconditionally.
// ---------------------------------------------------------------------

// One independent link group: the batch indices of the links forming one
// merged component, plus the batch-wide lookaside arrays resolved in the
// read-only phases (tour root per endpoint, pre-made arc nodes per link).
struct treap_ett::link_group_ctx {
  std::span<const edge> links;                             // whole batch
  std::span<const std::pair<uint32_t, uint32_t>> members;  // (group, index)
  node* const* root_u;                                     // per batch index
  node* const* root_v;
  const arc_nodes* arcs;                                   // per batch index
};

void treap_ett::link_group(const link_group_ctx& ctx) {
  // The group's links form a tree over its tours (the batch keeps the
  // graph acyclic). The merged tour is emitted as an ordered list of treap
  // segments by a DFS over that link tree: each old tour is rotated to
  // start at its entry vertex and split once after each attachment
  // sentinel, and a link (b, c) contributes "arc bc, tour of c's tree
  // rotated at c, arc cb" right after b's sentinel. One balanced join
  // reduction then rebuilds the merged treap.
  //
  // Groups are numerous and mostly tiny (a large random batch over a big
  // forest shatters into thousands of 1–3 link groups), so this path is
  // deliberately allocation-light: a single-link group takes a
  // straight-line fast path, and the general path uses flat sorted arrays
  // with binary-searched slices instead of hash containers.
  size_t m = ctx.members.size();
  if (m == 1) {
    uint32_t i = ctx.members.front().second;
    const edge& e = ctx.links[i];
    node* tu = reroot(e.u);
    node* tv = reroot(e.v);
    merge(merge(tu, ctx.arcs[i].fwd), merge(tv, ctx.arcs[i].rev));
    return;
  }

  // Flat adjacency: (vertex, link index) sorted by vertex; a vertex's
  // incident group links are one contiguous slice.
  std::vector<std::pair<vertex_id, uint32_t>> adj;
  adj.reserve(2 * m);
  for (const auto& [group, i] : ctx.members) {
    (void)group;
    adj.push_back({ctx.links[i].u, i});
    adj.push_back({ctx.links[i].v, i});
  }
  std::sort(adj.begin(), adj.end());
  // Attachment vertices per tour: one entry per distinct vertex, sorted by
  // tour root so each tree's attachments are one contiguous slice.
  std::vector<std::pair<uintptr_t, vertex_id>> attach;
  attach.reserve(adj.size());
  for (size_t j = 0; j < adj.size(); ++j) {
    if (j > 0 && adj[j].first == adj[j - 1].first) continue;
    uint32_t i = adj[j].second;
    node* root = ctx.links[i].u == adj[j].first ? ctx.root_u[i]
                                                : ctx.root_v[i];
    attach.push_back({reinterpret_cast<uintptr_t>(root), adj[j].first});
  }
  std::sort(attach.begin(), attach.end());
  auto adj_slice = [&](vertex_id v) {
    auto lo = std::lower_bound(adj.begin(), adj.end(),
                               std::pair<vertex_id, uint32_t>{v, 0});
    auto hi = lo;
    while (hi != adj.end() && hi->first == v) ++hi;
    return std::span<const std::pair<vertex_id, uint32_t>>{lo, hi};
  };

  // Emission actions: a filled `seg` emits one ready treap segment; a null
  // `seg` expands the not-yet-split tour rooted at `tree`, entered at
  // vertex `entry` via link `via` (the DFS-parent link, skipped when the
  // tree's own adjacency is walked). The explicit stack keeps the DFS
  // depth off the worker stack (a path-shaped link batch nests O(batch)
  // deep).
  constexpr uint32_t kNoVia = ~uint32_t{0};
  struct action {
    node* seg;
    node* tree;
    vertex_id entry;
    uint32_t via;
  };
  std::vector<action> stack;
  std::vector<node*> out;
  out.reserve(4 * m + 2);

  const edge& first = ctx.links[ctx.members.front().second];
  stack.push_back(
      {nullptr, ctx.root_u[ctx.members.front().second], first.u, kNoVia});
  std::vector<action> items;  // forward-order emission of one tour
  std::vector<std::pair<size_t, vertex_id>> ranked;
  while (!stack.empty()) {
    action act = stack.back();
    stack.pop_back();
    if (act.seg != nullptr) {
      out.push_back(act.seg);
      continue;
    }
    node* tree = act.tree;
    vertex_id entry = act.entry;
    uint32_t via = act.via;
    // This tree's attachments, with tour positions taken before splitting;
    // sorted by rotated rank so the entry comes first.
    auto alo = std::lower_bound(
        attach.begin(), attach.end(),
        std::pair<uintptr_t, vertex_id>{reinterpret_cast<uintptr_t>(tree), 0});
    size_t size = tree->subtree_nodes;
    size_t entry_rank = rank_of(sentinel(entry));
    ranked.clear();
    for (auto it = alo;
         it != attach.end() && it->first == reinterpret_cast<uintptr_t>(tree);
         ++it) {
      size_t r = rank_of(sentinel(it->second));
      ranked.emplace_back((r + size - entry_rank) % size, it->second);
    }
    std::sort(ranked.begin(), ranked.end());
    assert(!ranked.empty() && ranked.front().second == entry);

    items.clear();
    auto [before, from] = split_before(sentinel(entry));
    node* cur = from;  // rotated tour = from ++ before
    auto peel = [&](vertex_id b) {
      // Peels the leading segment of `cur` ending at b's sentinel, then
      // queues the subtrees hanging off b.
      auto [seg, rest] = split_after(sentinel(b));
      cur = rest;
      if (seg != nullptr) items.push_back({seg, nullptr, 0, 0});
      for (const auto& [vx, i] : adj_slice(b)) {
        if (i == via) continue;  // the DFS-parent link: emitted upstream
        const edge& e = ctx.links[i];
        bool fwd = e.u == b;
        items.push_back(
            {fwd ? ctx.arcs[i].fwd : ctx.arcs[i].rev, nullptr, 0, 0});
        items.push_back({nullptr, fwd ? ctx.root_v[i] : ctx.root_u[i],
                         fwd ? e.v : e.u, i});
        items.push_back(
            {fwd ? ctx.arcs[i].rev : ctx.arcs[i].fwd, nullptr, 0, 0});
      }
    };
    size_t j = 0;
    size_t before_size = before == nullptr ? 0 : before->subtree_nodes;
    size_t from_size = size - before_size;  // ranks >= entry_rank
    for (; j < ranked.size() && ranked[j].first < from_size; ++j)
      peel(ranked[j].second);
    if (cur != nullptr) items.push_back({cur, nullptr, 0, 0});  // `from` tail
    cur = before;
    for (; j < ranked.size(); ++j) peel(ranked[j].second);
    if (cur != nullptr) items.push_back({cur, nullptr, 0, 0});  // last tail
    stack.insert(stack.end(), items.rbegin(), items.rend());
  }
  join_all(out);
}

void treap_ett::batch_link(std::span<const edge> links) {
  size_t k = links.size();
  arcs_.reserve_for(k);
  if (k < kParallelMutationCutoff || num_workers() <= 1) {
    for (const edge& e : links) link(e.u, e.v);
    return;
  }

  // Phase 0 (parallel): activate every endpoint that has no sentinel yet
  // — the phases below walk and split from sentinel nodes, so they must
  // exist before any tour is touched. Distinct vertices only (sort +
  // dedup), so activations never race; priorities come from a counter
  // range reserved up front, keeping the structure deterministic.
  auto& endpoints = scratch_.endpoints;
  endpoints.resize(2 * k);
  parallel_for(0, k, [&](size_t i) {
    endpoints[2 * i] = links[i].u;
    endpoints[2 * i + 1] = links[i].v;
  });
  sort_unique(endpoints);
  uint64_t sentinel_base = counter_;
  counter_ += endpoints.size();
  parallel_for(0, endpoints.size(), [&](size_t i) {
    ensure_sentinel_with_priority(endpoints[i],
                                  rng_.ith_rand(sentinel_base + i));
  });

  // Phase 1 (read-only, parallel): resolve each endpoint's tour root.
  auto& root_u = scratch_.root_u;
  auto& root_v = scratch_.root_v;
  root_u.resize(k);
  root_v.resize(k);
  parallel_for(
      0, k,
      [&](size_t i) {
        root_u[i] = root_of(sentinel(links[i].u));
        root_v[i] = root_of(sentinel(links[i].v));
      },
      kWalkGrain);

  // Phase 2 (parallel): make both arc nodes per link — priorities come from
  // a counter range reserved up front, so the result is deterministic and
  // workers never touch shared RNG state — and register them in the arc map
  // (concurrent inserts of distinct keys are phase-safe).
  uint64_t base = counter_;
  counter_ += 2 * k;
  auto& arcs = scratch_.arcs;
  arcs.resize(k);
  parallel_for(0, k, [&](size_t i) {
    const edge& e = links[i];
    node* fwd =
        make_node_with_priority(arc_key(e.u, e.v), rng_.ith_rand(base + 2 * i));
    node* rev = make_node_with_priority(arc_key(e.v, e.u),
                                        rng_.ith_rand(base + 2 * i + 1));
    update(fwd);
    update(rev);
    arcs[i] = {fwd, rev};
    arcs_.insert(edge_key(e.canonical()), arcs[i]);
  });

  // Phase 3: partition the batch into groups whose merged components
  // are disjoint (ett/link_partition.hpp — shared with the blocked
  // substrate). The all-distinct fast path splices each link's two
  // tours directly, skipping the union-find and semisort (the dominant
  // case for the shattered batches flagged in the PR-3 measurements).
  auto part = partition_links<node*>(root_u, root_v, scratch_.part);
  if (part.all_distinct) {
    parallel_for(
        0, k,
        [&](size_t i) {
          const edge& e = links[i];
          node* tu = reroot(e.u);
          node* tv = reroot(e.v);
          merge(merge(tu, arcs[i].fwd), merge(tv, arcs[i].rev));
        },
        kWalkGrain);
    return;
  }
  auto& groups = part.groups;

  // Phase 4 (parallel over groups): rebuild each merged tour.
  parallel_for(
      0, groups.num_groups(),
      [&](size_t g) {
        std::span<const std::pair<uint32_t, uint32_t>> members(
            groups.records.data() + groups.group_starts[g],
            groups.group_size(g));
        link_group({links, members, root_u.data(), root_v.data(),
                    arcs.data()});
      },
      kWalkGrain);
}

// One cut arc occurrence: its tour position (taken before any split), the
// arc node itself, and which batch cut it belongs to (for pair matching).
struct treap_ett::cut_mark {
  size_t rank;
  node* arc;
  uint32_t cut;
};

void treap_ett::cut_tree(std::span<cut_mark> marks) {
  // Peel the tour left to right at every mark: segments S0 M1 S1 ... Mm Sm
  // (segments may be empty). The two arcs of one cut edge delimit the
  // subtree's interval and intervals of distinct cuts nest, so a stack of
  // open cuts assigns each segment to its resulting tour; each tour is then
  // rebuilt with one join reduction. Like link groups, cut trees are
  // numerous and mostly tiny, so the single-cut case is a straight-line
  // fast path and the general case avoids per-tour containers.
  std::sort(
      marks.begin(), marks.end(),
      [](const cut_mark& a, const cut_mark& b) { return a.rank < b.rank; });
  size_t m = marks.size();
  // Cut endpoints, recovered from the arc tags before the nodes are freed:
  // each may end up a lone sentinel and give its slot back (the release is
  // idempotent, so the duplicate mentions across a cut's two arcs are
  // harmless). This group owns every tour those vertices can land in, so
  // the releases below stay within the group's partition.
  std::vector<vertex_id> touched(m);
  for (size_t j = 0; j < m; ++j) touched[j] = arc_tag_tail(marks[j].arc->tag);
  if (m == 2) {
    // One cut: tour = S0 a S1 b S2  ->  trees (S0 S2) and (S1).
    assert(marks[0].cut == marks[1].cut);
    auto [s0, r0] = split_before(marks[0].arc);
    (void)r0;
    auto [a0, r1] = split_after(marks[0].arc);
    (void)a0;
    (void)r1;
    auto [s1, r2] = split_before(marks[1].arc);
    (void)r2;
    auto [b0, s2] = split_after(marks[1].arc);
    (void)b0;
    (void)s1;  // the inner tour already stands alone
    merge(s0, s2);
    free_node(marks[0].arc);
    free_node(marks[1].arc);
    for (vertex_id v : touched) maybe_release_sentinel(v);
    return;
  }

  std::vector<node*> segs(m + 1);
  node* tail = nullptr;
  for (size_t j = 0; j < m; ++j) {
    auto [seg, rest] = split_before(marks[j].arc);
    (void)rest;
    segs[j] = seg;
    auto [arc, after] = split_after(marks[j].arc);
    assert(arc == marks[j].arc);
    (void)arc;
    tail = after;
  }
  segs[m] = tail;

  // Nesting means a cut's closing arc can only appear while its opening
  // arc is the innermost open one, so matching needs no map — just compare
  // against the top of the open stack.
  size_t num_tours = m / 2 + 1;
  std::vector<uint32_t> tour_of(m + 1);
  std::vector<std::pair<uint32_t, uint32_t>> open_stack;  // (cut, tour)
  open_stack.reserve(m / 2);
  tour_of[0] = 0;
  uint32_t next_tour = 1;
  for (size_t j = 0; j < m; ++j) {
    if (!open_stack.empty() && open_stack.back().first == marks[j].cut) {
      open_stack.pop_back();
    } else {
      open_stack.push_back({marks[j].cut, next_tour++});
    }
    tour_of[j + 1] = open_stack.empty() ? 0 : open_stack.back().second;
  }
  assert(open_stack.empty() && "unmatched cut arc");
  assert(next_tour == num_tours);
  for (const cut_mark& mk : marks) free_node(mk.arc);

  // Bucket the segments by tour (order-preserving), then join each tour.
  std::vector<uint32_t> offsets(num_tours + 1, 0);
  for (size_t j = 0; j <= m; ++j)
    if (segs[j] != nullptr) ++offsets[tour_of[j] + 1];
  for (size_t t = 0; t < num_tours; ++t) offsets[t + 1] += offsets[t];
  std::vector<node*> flat(offsets[num_tours]);
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t j = 0; j <= m; ++j)
      if (segs[j] != nullptr) flat[cursor[tour_of[j]]++] = segs[j];
  }
  parallel_for(
      0, num_tours,
      [&](size_t t) {
        join_all(std::span<node* const>{flat.data() + offsets[t],
                                        flat.data() + offsets[t + 1]});
      },
      kWalkGrain);
  for (vertex_id v : touched) maybe_release_sentinel(v);
}

void treap_ett::batch_cut(std::span<const edge> cuts) {
  size_t c = cuts.size();
  if (c < kParallelMutationCutoff || num_workers() <= 1) {
    for (const edge& e : cuts) cut(e.u, e.v);
    dir_.sweep_pending();
    return;
  }

  // Phase 1 (read-only, parallel): resolve every cut edge's arc pair, its
  // tour root, and both arcs' tour positions while the forest is
  // unchanged, writing straight into the (root, mark) records the
  // semisort groups. (`keyed` is consumed by the semisort and cannot be
  // scratch-reused; `keys` can.)
  std::vector<std::pair<uint64_t, cut_mark>> keyed(2 * c);
  auto& keys = scratch_.keys;
  keys.resize(c);
  parallel_for(
      0, c,
      [&](size_t i) {
        uint64_t key = edge_key(cuts[i].canonical());
        keys[i] = key;
        const arc_nodes* an = arcs_.find(key);
        assert(an != nullptr && "batch_cut: edge not in forest");
        uint64_t root_key = static_cast<uint64_t>(
            reinterpret_cast<uintptr_t>(root_of(an->fwd)));
        uint32_t ci = static_cast<uint32_t>(i);
        keyed[2 * i] = {root_key, {rank_of(an->fwd), an->fwd, ci}};
        keyed[2 * i + 1] = {root_key, {rank_of(an->rev), an->rev, ci}};
      },
      kWalkGrain);

  // Phase 2 (parallel): drop the arc records (distinct-key erases).
  arcs_.erase_batch(keys);

  // Phase 3: group marks by tour, then rebuild disjoint tours concurrently.
  auto groups = group_by_key(std::move(keyed));
  parallel_for(
      0, groups.num_groups(),
      [&](size_t g) {
        size_t sz = groups.group_size(g);
        if (sz == 2) {  // single cut in this tour: no heap traffic
          cut_mark two[2] = {groups.records[groups.group_starts[g]].second,
                             groups.records[groups.group_starts[g] + 1].second};
          cut_tree(two);
          return;
        }
        std::vector<cut_mark> tree_marks(sz);
        for (size_t j = 0; j < sz; ++j)
          tree_marks[j] = groups.records[groups.group_starts[g] + j].second;
        cut_tree(tree_marks);
      },
      kWalkGrain);
  dir_.sweep_pending();
}

void treap_ett::batch_add_counts(std::span<const count_delta> deltas) {
  size_t k = deltas.size();
  if (k < kParallelMutationCutoff || num_workers() <= 1) {
    for (const count_delta& d : deltas)
      add_counts(d.v, d.tree_delta, d.nontree_delta);
    dir_.sweep_pending();
    return;
  }
  // Phase 0 (parallel): activate vertices that gain their first level-i
  // counter here (at most one delta per vertex, so no activation races;
  // priorities from a reserved counter range, as in batch_link).
  uint64_t sentinel_base = counter_;
  counter_ += k;
  parallel_for(0, k, [&](size_t i) {
    ensure_sentinel_with_priority(deltas[i].v,
                                  rng_.ith_rand(sentinel_base + i));
  });
  // Root-path updates of vertices in one tour overlap near the root, so
  // grouping by tour gives the safe parallelism: disjoint tours update
  // concurrently, entries within a tour stay sequential.
  std::vector<std::pair<uint64_t, uint32_t>> keyed(k);
  parallel_for(
      0, k,
      [&](size_t i) {
        keyed[i] = {static_cast<uint64_t>(reinterpret_cast<uintptr_t>(
                        root_of(sentinel(deltas[i].v)))),
                    static_cast<uint32_t>(i)};
      },
      kWalkGrain);
  auto groups = group_by_key(std::move(keyed));
  parallel_for(
      0, groups.num_groups(),
      [&](size_t g) {
        for (size_t j = groups.group_starts[g]; j < groups.group_starts[g + 1];
             ++j) {
          const count_delta& d = deltas[groups.records[j].second];
          add_counts(d.v, d.tree_delta, d.nontree_delta);
        }
      },
      kWalkGrain);
  dir_.sweep_pending();
}

bool treap_ett::connected(vertex_id u, vertex_id v) const {
  node* su = sentinel(u);
  node* sv = sentinel(v);
  if (su == nullptr || sv == nullptr) return u == v;  // inactive: singleton
  return root_of(su) == root_of(sv);
}

std::vector<bool> treap_ett::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> queries) const {
  // Byte staging: std::vector<bool> packs bits, so parallel writes race.
  std::vector<uint8_t> bits(queries.size());
  parallel_for(
      0, queries.size(),
      [&](size_t i) {
        bits[i] = connected(queries[i].first, queries[i].second) ? 1 : 0;
      },
      kWalkGrain);
  return std::vector<bool>(bits.begin(), bits.end());
}

ett_rep treap_ett::find_rep(vertex_id v) const {
  node* s = sentinel(v);
  // Tourless vertices (inactive, or active with non-tree counters only)
  // take the tagged singleton rep, so batch_add_counts-driven activation
  // and reclamation never move a representative.
  if (s == nullptr || (s->parent == nullptr && s->subtree_nodes == 1))
    return singleton_rep(v);
  return root_of(s);
}

std::vector<ett_rep> treap_ett::batch_find_rep(
    std::span<const vertex_id> vs) const {
  std::vector<ett_rep> out(vs.size());
  parallel_for(
      0, vs.size(), [&](size_t i) { out[i] = find_rep(vs[i]); }, kWalkGrain);
  return out;
}

ett_counts treap_ett::component_counts(vertex_id v) const {
  node* s = sentinel(v);
  return s == nullptr ? ett_counts{1, 0, 0} : root_of(s)->agg;
}

ett_counts treap_ett::vertex_counts(vertex_id v) const {
  node* s = sentinel(v);
  return s == nullptr ? ett_counts{1, 0, 0} : s->own;
}

void treap_ett::add_counts(vertex_id v, int32_t tree_delta,
                           int32_t nontree_delta) {
  node* s = ensure_sentinel(v);
  assert(static_cast<int64_t>(s->own.tree_edges) + tree_delta >= 0);
  assert(static_cast<int64_t>(s->own.nontree_edges) + nontree_delta >= 0);
  s->own.tree_edges =
      static_cast<uint32_t>(static_cast<int64_t>(s->own.tree_edges) +
                            tree_delta);
  s->own.nontree_edges =
      static_cast<uint32_t>(static_cast<int64_t>(s->own.nontree_edges) +
                            nontree_delta);
  for (node* x = s; x != nullptr; x = x->parent) update(x);
  maybe_release_sentinel(v);  // last counter gone and no tour: free the slot
}

vertex_id treap_ett::find_tree_slot(vertex_id v) const {
  node* s = sentinel(v);
  if (s == nullptr) return kNoVertex;
  node* root = root_of(s);
  if (root->agg.tree_edges == 0) return kNoVertex;
  node* cur = root;
  while (true) {
    if (cur->left && cur->left->agg.tree_edges > 0) {
      cur = cur->left;
    } else if (cur->own.tree_edges > 0) {
      return static_cast<vertex_id>(cur->tag);
    } else {
      cur = cur->right;
    }
  }
}

vertex_id treap_ett::find_nontree_slot(vertex_id v) const {
  node* s = sentinel(v);
  if (s == nullptr) return kNoVertex;
  node* root = root_of(s);
  if (root->agg.nontree_edges == 0) return kNoVertex;
  node* cur = root;
  while (true) {
    if (cur->left && cur->left->agg.nontree_edges > 0) {
      cur = cur->left;
    } else if (cur->own.nontree_edges > 0) {
      return static_cast<vertex_id>(cur->tag);
    } else {
      cur = cur->right;
    }
  }
}

std::vector<std::pair<vertex_id, uint32_t>> treap_ett::fetch_counted(
    vertex_id v, uint64_t want, bool nontree) const {
  std::vector<std::pair<vertex_id, uint32_t>> out;
  if (want == 0) return out;
  node* s = sentinel(v);
  if (s == nullptr) return out;  // inactive singleton: no counters
  // In-order (= tour-order) descent pruned by the subtree aggregates, so
  // the walk touches O(result * lg n) nodes (Appendix 9's first-ℓ fetch
  // bound).
  std::vector<std::pair<node*, bool>> stack{{root_of(s), false}};
  uint64_t left = want;
  while (!stack.empty() && left > 0) {
    auto [x, expanded] = stack.back();
    stack.pop_back();
    if (x == nullptr) continue;
    if (!expanded) {
      if (slot_count(x->agg, nontree) == 0) continue;  // prune
      stack.push_back({x->right, false});
      stack.push_back({x, true});
      stack.push_back({x->left, false});
    } else if (uint64_t own = slot_count(x->own, nontree); own > 0) {
      assert(!is_arc_tag(x->tag));  // only sentinels carry counts
      uint64_t take = std::min(own, left);
      out.emplace_back(static_cast<vertex_id>(x->tag),
                       static_cast<uint32_t>(take));
      left -= take;
    }
  }
  return out;
}

std::vector<std::pair<vertex_id, uint32_t>> treap_ett::fetch_nontree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/true);
}

std::vector<std::pair<vertex_id, uint32_t>> treap_ett::fetch_tree(
    vertex_id v, uint64_t want) const {
  return fetch_counted(v, want, /*nontree=*/false);
}

std::vector<vertex_id> treap_ett::component_vertices(vertex_id v) const {
  node* s = sentinel(v);
  if (s == nullptr) return {v};
  std::vector<vertex_id> out;
  // Iterative in-order walk from the root.
  std::vector<std::pair<node*, bool>> stack{{root_of(s), false}};
  while (!stack.empty()) {
    auto [x, expanded] = stack.back();
    stack.pop_back();
    if (x == nullptr) continue;
    if (expanded) {
      if (!is_arc_tag(x->tag))
        out.push_back(static_cast<vertex_id>(x->tag));
    } else {
      stack.push_back({x->right, false});
      stack.push_back({x, true});
      stack.push_back({x->left, false});
    }
  }
  return out;
}

std::string treap_ett::check_consistency() const {
  // Directory invariants first: chunk occupancy bookkeeping, then the
  // activation contract — a slot exists iff some level-i edge still
  // touches its vertex (a lone sentinel with zero edge counters is an
  // activation leak: maybe_release_sentinel should have reclaimed it).
  if (std::string err = dir_.check_consistency(); !err.empty()) return err;
  std::vector<std::pair<vertex_id, node*>> active;
  active.reserve(dir_.active_count());
  dir_.for_each_active(
      [&](vertex_id v, node* const& s) { active.emplace_back(v, s); });
  for (auto [v, s] : active) {
    if (s->tag != static_cast<uint64_t>(v)) return "sentinel tag mismatch";
    if (s->own.vertices != 1) return "per-vertex counter lost its vertex";
    if (s->parent == nullptr && s->subtree_nodes == 1 &&
        s->own.tree_edges == 0 && s->own.nontree_edges == 0)
      return "activation leak: lone sentinel with zero edge counters";
  }

  // Vertex at which the tour enters (head) / leaves (tail) a node.
  auto tail_of = [](const node* x) { return tag_tail(x->tag); };
  auto head_of = [](const node* x) { return tag_head(x->tag); };
  // Validate every treap reachable from a sentinel.
  std::unordered_map<node*, bool> seen_root;
  for (auto [v, s] : active) {
    (void)v;
    node* root = root_of(s);
    if (seen_root.count(root)) continue;
    seen_root[root] = true;
    // Structural check (heap order, parent pointers, aggregates).
    std::vector<node*> stack{root};
    ett_counts total{};
    uint32_t nodes = 0;
    while (!stack.empty()) {
      node* x = stack.back();
      stack.pop_back();
      ++nodes;
      ett_counts agg = x->own;
      for (node* c : {x->left, x->right}) {
        if (c == nullptr) continue;
        if (c->parent != x) return "parent pointer mismatch";
        if (c->priority > x->priority) return "heap order violated";
        agg = agg + c->agg;
        stack.push_back(c);
      }
      if (!(agg == x->agg)) return "aggregate mismatch";
      total = x == root ? x->agg : total;
    }
    if (nodes != root->subtree_nodes) return "subtree count mismatch";
    // Tour shape: k vertices, 2(k-1) arcs.
    if (root->subtree_nodes != 3 * total.vertices - 2)
      return "tour length mismatch";
    // Tour orientation: the in-order sequence must be a closed Euler walk —
    // consecutive nodes (cyclically) agree on the vertex between them, each
    // sentinel is the registered node for its vertex, each arc node is one
    // of the two registered arcs of a present tree edge, and counters live
    // only on sentinels. Bulk link/cut rebuilds splice tours from dozens of
    // segments, so a misplaced segment shows up here even when the treap
    // shape itself is healthy.
    std::vector<const node*> tour;
    tour.reserve(root->subtree_nodes);
    std::vector<std::pair<const node*, bool>> walk{{root, false}};
    while (!walk.empty()) {
      auto [x, expanded] = walk.back();
      walk.pop_back();
      if (x == nullptr) continue;
      if (expanded) {
        tour.push_back(x);
      } else {
        walk.push_back({x->right, false});
        walk.push_back({x, true});
        walk.push_back({x->left, false});
      }
    }
    auto describe = [&](const node* x) {
      return !is_arc_tag(x->tag)
                 ? "s" + std::to_string(tail_of(x))
                 : std::to_string(tail_of(x)) + "->" +
                       std::to_string(head_of(x));
    };
    for (size_t i = 0; i < tour.size(); ++i) {
      const node* x = tour[i];
      const node* next = tour[(i + 1) % tour.size()];
      if (head_of(x) != tail_of(next)) {
        std::string msg = "tour orientation broken at position " +
                          std::to_string(i) + ": " + describe(x) + " then " +
                          describe(next);
        if (tour.size() <= 120) {
          msg += " [tour:";
          for (const node* t : tour) msg += " " + describe(t);
          msg += "]";
        }
        return msg;
      }
      if (!is_arc_tag(x->tag)) {
        if (x->tag >= n_ ||
            sentinel(static_cast<vertex_id>(x->tag)) != x)
          return "sentinel identity mismatch";
      } else {
        if (x->own.vertices != 0 || x->own.tree_edges != 0 ||
            x->own.nontree_edges != 0)
          return "counters on an arc node";
        edge e{tail_of(x), head_of(x)};
        const arc_nodes* an = arcs_.find(edge_key(e.canonical()));
        if (an == nullptr) return "arc node for an unregistered edge";
        if (an->fwd != x && an->rev != x) return "arc node identity mismatch";
      }
    }
  }
  // Every arc pair registered in the map must hang under some sentinel's
  // root (i.e. was visited above). Sequential walk: for_each fans out
  // across workers, which would race on the error string.
  for (auto& [key, an] : arcs_.entries()) {
    (void)key;
    if (!seen_root.count(root_of(an.fwd)) ||
        !seen_root.count(root_of(an.rev)))
      return "arc-map node not reachable from any sentinel";
  }
  return "";
}

}  // namespace bdc
