// Algorithms 1-5 of the paper. Engineering notes:
//
// * The level search runs phase-synchronously across pieces: every
//   still-searching piece performs its probe, then a barrier, then all
//   merges and detaches commit together. This realizes the paper's
//   parallel phases with the library's phase-concurrency contracts.
// * One search, three fetch schedules (level_search_kind). Algorithms 4
//   and 5 differ only in how many edges a piece's next probe fetches:
//   min(2^w, remaining), where w grows every round (Algorithm 5), or is
//   reset to 0 after the piece's supercomponent merges (Algorithm 4's
//   restarted doubling); the scan-all ablation fetches every remaining
//   edge. The ascent, the k-piece rule, M, the deferred pushes and the
//   finalizer are shared.
// * Pieces are identified by (seed vertex, F_level representative).
//   Representatives stay valid through an entire level search because F_i
//   is only restructured by promotions, which the search defers to the
//   end of the level (the paper's key structural idea).
// * The ascent tracks cut edges, not seeds. At each level i, the
//   replacements S found below are linked into F_i first (Algorithm 3's
//   line 2, hoisted out of the level searches). A cut whose endpoints F_i
//   then connects is healed and dropped: F_i is a subforest of every
//   higher forest, so it stays healed. HDT stops at its first
//   replacement for the same reason. A level with no open cut is not
//   searched, and the seeds are the open cuts' endpoints.
// * k-piece rule. The open cuts form a graph on the pieces, and a pre-batch
//   component's pieces are connected in it (its tree minus the cuts, plus S,
//   which only joins pieces of one component). Each connected group of it is
//   therefore one component's pieces, and every level-i replacement joins
//   two pieces of one group. A group's largest piece (ties: smallest seed
//   id, since piece order follows rep addresses) is passive when the other
//   pieces together hold at most active_cap vertices: inactive, and counted
//   as larger than active_cap, so a find into it stays at level i. Then no
//   supercomponent without the passive piece can grow past active_cap, so
//   each one searches until it is exhausted or merges with the passive
//   piece. A level-i non-tree edge between two supercomponents left at the
//   end has an exhausted end, so it was found: none is missed. Two pieces
//   are the special case, HDT's replace: the smaller holds at most half of
//   at most 2^(i+1). The rule only removes probes and pushes, so Theorem 9's
//   charging and Theorem 7's depth are unchanged.
// * The rule holds under every fetch schedule: the rule decides which
//   pieces search, and the schedule only sizes their probes. An active
//   piece with edges left fetches at least one new edge per round
//   (min(2^w, remaining) >= 1), and the edges of a piece that stays
//   active are detached, so they are never fetched again. Every
//   searching piece therefore ends exhausted or merged into a
//   supercomponent larger than active_cap, which is all the argument
//   above uses.
// * Without the size test the rule is unsound: with active_cap 128 and
//   pieces of 100, 90 and 50 vertices (the rest hold 140), if the
//   90-piece finds the 50-piece first, their supercomponent is large and
//   stops, so its edge to an unsearched 100-piece is never found. Such a
//   group keeps the paper's rule: every piece of at most active_cap
//   vertices searches.
#include "core/batch_connectivity.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "obs/telemetry.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/parallel_sort.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"
#include "util/timer.hpp"

namespace bdc {

namespace {

/// Canonicalizes, dedupes, and drops self-loops and edges with an
/// endpoint outside [0, n). The range check is the public API's only
/// defense: an out-of-range id that slips through (e.g. from a truncated
/// or hand-edited stream file) would flow into batch_find_rep and index
/// past the forests' sparse vertex directories (sized for ids < n).
std::vector<edge> sanitize(std::span<const edge> edges, vertex_id n) {
  std::vector<edge> clean(edges.size());
  parallel_for(0, edges.size(),
               [&](size_t i) { clean[i] = edges[i].canonical(); });
  clean = filter(clean, [n](const edge& e) {
    // Canonical form has u <= v, so v < n bounds both endpoints.
    return !e.is_self_loop() && e.v < n;
  });
  sort_unique(clean);
  return clean;
}

}  // namespace

batch_dynamic_connectivity::batch_dynamic_connectivity(vertex_id n,
                                                       options opts)
    : opts_(opts),
      ls_(n),
      top_forest_(&ls_.forest(ls_.top())) {
  if (opts_.concurrent_reads) {
    service_ = std::make_unique<service_state>();
    // Views are valid from construction on (version 0); no previous
    // snapshot exists to share chunks with, so build from the full walk.
    publish_snapshot(/*force_full=*/true);
  }
}

std::string config_label(const options& opts) {
  return opts.concurrent_reads ? "blocked+serve" : "blocked";
}

// ---------------------------------------------------------------------
// Epoch-snapshot read service
// ---------------------------------------------------------------------

batch_dynamic_connectivity::update_scope::update_scope(
    batch_dynamic_connectivity& owner)
    : owner_(owner) {
  if (owner_.service_ == nullptr) return;
  service_state& s = *owner_.service_;
  s.epochs.begin_write();
  owner_.delta_.clear();  // filled by this batch for its publish
}

batch_dynamic_connectivity::update_scope::~update_scope() {
  if (owner_.service_ != nullptr) {
    service_state& s = *owner_.service_;
    owner_.publish_snapshot(/*force_full=*/false);
    {
      BDC_PHASE_SPAN(sp, "epoch.drain");
      // Epoch turnover: the snapshot this batch superseded is stamped
      // with the pre-advance epoch, so after the advance a NEW reader can
      // never reach it, and the drain below frees whatever no OLD reader
      // pins. Draining after the advance is also what makes the
      // overflow-pin path sound (see epoch_manager::pin).
      s.epochs.advance();
      s.epochs.end_write();
      s.epochs.drain();
    }
    // Retention gauges: sampled once per batch, after the drain, so they
    // report what actually survives the batch (snapshots that readers pin
    // and blocks the pool keeps).
    static obs::gauge& limbo_g =
        obs::metric_registry::global().get_gauge("epoch.limbo");
    static obs::gauge& blocks_g =
        obs::metric_registry::global().get_gauge("pool.retained_blocks");
    limbo_g.set(static_cast<int64_t>(s.epochs.limbo_size()));
    blocks_g.set(static_cast<int64_t>(owner_.pool_stats().blocks));
  }
  // Hierarchy footprint gauges: sampled once per batch regardless of the
  // read service, so reports and --metrics JSONL can show memory scaling
  // with per-level activity (sparse vertex directories) instead of with
  // n * materialized levels.
  static obs::gauge& mat_g =
      obs::metric_registry::global().get_gauge("levels.materialized");
  static obs::gauge& act_g =
      obs::metric_registry::global().get_gauge("levels.active_vertices");
  static obs::gauge& bytes_g =
      obs::metric_registry::global().get_gauge("levels.bytes");
  const level_structure::hierarchy_stats hs = owner_.ls_.footprint();
  mat_g.set(static_cast<int64_t>(hs.materialized));
  act_g.set(static_cast<int64_t>(hs.active_vertices));
  bytes_g.set(static_cast<int64_t>(hs.bytes));
}

void batch_dynamic_connectivity::publish_snapshot(bool force_full) {
  BDC_PHASE_SPAN(span_publish, "publish.snapshot");
  timer t;
  // `published` is only exchanged on this (writer) thread, so a relaxed
  // load sees the latest snapshot; readers never mutate it.
  const snapshot* prev =
      service_->published.load(std::memory_order_relaxed);
  // Construction publishes version 0; batch k publishes version k.
  const uint64_t version = prev == nullptr ? 0 : prev->version + 1;
  snapshot* snap = nullptr;
  if (!force_full && prev != nullptr)
    snap = build_incremental_snapshot(version, *prev);
  if (snap == nullptr) {
    snap = build_full_snapshot(version);
    stats_.publishes_full++;
  }
  delta_.clear();
  stats_.snapshots_published++;
  stats_.publish_micros += static_cast<uint64_t>(t.elapsed_us());
  const snapshot* old =
      service_->published.exchange(snap, std::memory_order_acq_rel);
  if (old != nullptr) {
    // A pinned reader may still hold `old`; free it through the limbo.
    // Chunks cloned out by later versions are freed transitively here —
    // the retiring snapshot holds their last shared_ptr reference.
    service_->epochs.retire(
        const_cast<snapshot*>(old),
        [](void* p) { delete static_cast<snapshot*>(p); });
  }
}

batch_dynamic_connectivity::snapshot*
batch_dynamic_connectivity::build_full_snapshot(uint64_t version) const {
  auto* snap = new snapshot;
  snap->version = version;
  const size_t n = num_vertices();
  snap->n = static_cast<vertex_id>(n);
  const size_t nchunks =
      (n + snapshot::kChunkSize - 1) >> snapshot::kChunkLog;
  snap->labels.resize(nchunks);
  snap->sizes.resize(nchunks);
  std::vector<vertex_id> flat = components();
  std::vector<uint32_t> counts(n, 0);
  for (vertex_id l : flat) counts[l]++;
  parallel_for(0, nchunks, [&](size_t c) {
    // make_shared value-initializes, so a partially covered tail chunk
    // holds zeroes past n.
    auto lc = std::make_shared<snapshot::label_chunk>();
    auto sc = std::make_shared<snapshot::size_chunk>();
    const size_t base = c << snapshot::kChunkLog;
    const size_t cnt = std::min(snapshot::kChunkSize, n - base);
    std::copy_n(flat.begin() + static_cast<ptrdiff_t>(base), cnt,
                lc->begin());
    std::copy_n(counts.begin() + static_cast<ptrdiff_t>(base), cnt,
                sc->begin());
    snap->labels[c] = std::move(lc);
    snap->sizes[c] = std::move(sc);
  });
  return snap;
}

void batch_dynamic_connectivity::note_merges(
    const blocked_ett& top, std::span<const rep> members,
    std::span<const vertex_id> member_seed, std::span<const uint32_t> group) {
  const snapshot& prev = *service_->published.load(std::memory_order_relaxed);
  // Members ordered by group; singleton groups merge nothing.
  std::vector<std::pair<uint32_t, uint32_t>> order(members.size());
  for (uint32_t c = 0; c < members.size(); ++c) order[c] = {group[c], c};
  std::sort(order.begin(), order.end());
  const size_t budget = num_vertices() / 4;
  size_t walked = 0;
  struct member {
    uint32_t size;
    vertex_id label;  // old label
    rep handle;
  };
  std::vector<member> g;
  for (size_t st = 0; st < order.size();) {
    g.clear();
    for (const uint32_t grp = order[st].first;
         st < order.size() && order[st].first == grp; ++st) {
      const vertex_id seed = member_seed[order[st].second];
      g.push_back({top.component_counts(seed).vertices, prev.label_of(seed),
                   members[order[st].second]});
    }
    if (g.size() < 2) continue;
    // The member holding the group minimum keeps it; every other
    // member's vertices change label and are walked.
    uint32_t total = 0;
    const member* keeper = &g[0];
    for (const member& m : g) {
      total += m.size;
      if (m.label < keeper->label) keeper = &m;
    }
    walked += total - keeper->size;
    if (walked > budget) {
      delta_.full = true;
      return;
    }
    for (const member& m : g)
      if (&m != keeper)
        top.for_each_tour_vertex(m.handle, [&](vertex_id v) {
          delta_.relabel.push_back({v, keeper->label});
        });
    delta_.resize.push_back({keeper->label, total});
  }
}

void batch_dynamic_connectivity::plan_splits(const snapshot& prev) {
  // A delete batch never merges pre-batch components (a replacement only
  // rejoins pieces of one old component), so each touched post-batch
  // component lies inside one old component and inherits its label l.
  // The piece that still holds vertex l keeps l unwalked (l was the
  // minimum of a superset); every other piece is walked and relabelled
  // to its own minimum. Components not seeded kept their membership,
  // hence their label and size: every component whose membership changed
  // contains an endpoint of a top-forest cut or replacement link (cut
  // edges seed both halves of a split, and promoted replacements seed
  // every reconnected fragment).
  struct touched_piece {
    vertex_id old_label;
    rep handle;
    vertex_id seed;
    bool operator<(const touched_piece& o) const {
      return std::tie(old_label, handle, seed) <
             std::tie(o.old_label, o.handle, o.seed);
    }
  };
  auto& touched = delta_.touched;
  sort_unique(touched);
  auto reps = top_forest_->batch_find_rep(touched);
  std::vector<touched_piece> pieces(touched.size());
  for (size_t i = 0; i < touched.size(); ++i)
    pieces[i] = {prev.label_of(touched[i]), reps[i], touched[i]};
  // Sorted by old label, then by piece: one pass dedupes the seeds of
  // each piece and drops the piece keeping its old label.
  std::sort(pieces.begin(), pieces.end());
  uint64_t walk = 0;
  size_t np = 0;
  const blocked_ett& f = *top_forest_;
  rep keeper{};
  for (size_t i = 0; i < pieces.size(); ++i) {
    const touched_piece& p = pieces[i];
    if (i == 0 || p.old_label != pieces[i - 1].old_label) {
      keeper = f.find_rep(p.old_label);
      delta_.resize.push_back(
          {p.old_label, f.component_counts(p.old_label).vertices});
    } else if (p.handle == pieces[i - 1].handle) {
      continue;
    }
    if (p.handle == keeper) continue;
    walk += f.component_counts(p.seed).vertices;
    pieces[np++] = p;
  }
  // Walk budget: when the batch moved more than a quarter of the
  // graph (shatter-everything deletes), the parallel full walk beats
  // chasing tours one by one — fall back.
  if (walk > num_vertices() / 4) {
    delta_.full = true;
    return;
  }
  std::vector<vertex_id> verts;
  for (size_t i = 0; i < np; ++i) {
    verts.clear();
    f.for_each_tour_vertex(pieces[i].handle,
                           [&](vertex_id v) { verts.push_back(v); });
    const vertex_id mn = *std::min_element(verts.begin(), verts.end());
    for (vertex_id v : verts) delta_.relabel.push_back({v, mn});
    delta_.resize.push_back({mn, static_cast<uint32_t>(verts.size())});
  }
}

batch_dynamic_connectivity::snapshot*
batch_dynamic_connectivity::build_incremental_snapshot(
    uint64_t version, const snapshot& prev) {
  if (!delta_.touched.empty()) plan_splits(prev);
  if (delta_.full) return nullptr;

  auto* snap = new snapshot;
  snap->version = version;
  snap->n = prev.n;
  snap->labels = prev.labels;  // chunk pointers shared; cloned on write
  snap->sizes = prev.sizes;

  // Clone-on-first-write per publish: a chunk with use_count() > 1 is
  // still shared with prev (or an older limbo snapshot) and must be
  // copied; one we already cloned this publish is solely ours. use_count
  // is reliable here because chunk shared_ptrs are only copied/dropped on
  // this writer thread (readers hold the snapshot*, never the chunks).
  auto write = [](auto& chunks, vertex_id i, auto value) {
    auto& sp = chunks[i >> snapshot::kChunkLog];
    if (sp.use_count() > 1)
      sp = std::make_shared<std::remove_reference_t<decltype(*sp)>>(*sp);
    (*sp)[i & (snapshot::kChunkSize - 1)] = value;
  };
  for (const auto& [v, l] : delta_.relabel) write(snap->labels, v, l);
  for (const auto& [l, sz] : delta_.resize) write(snap->sizes, l, sz);
  stats_.publish_relabeled += delta_.relabel.size();
  return snap;
}

std::vector<vertex_id>
batch_dynamic_connectivity::snapshot_view::components() const {
  // Sequential on purpose: this runs on reader threads, outside the
  // parallel scheduler's worker pool.
  std::vector<vertex_id> out(snap_->n);
  for (size_t c = 0; c < snap_->labels.size(); ++c) {
    const size_t base = c << snapshot::kChunkLog;
    const size_t cnt = std::min(snapshot::kChunkSize, out.size() - base);
    std::copy_n(snap_->labels[c]->begin(), cnt,
                out.begin() + static_cast<ptrdiff_t>(base));
  }
  return out;
}

batch_dynamic_connectivity::snapshot_view
batch_dynamic_connectivity::snapshot_query() const {
  assert(service_ != nullptr &&
         "snapshot_query requires options::concurrent_reads");
  // Pin FIRST, then load: the pin synchronizes with the latest advance
  // (seq_cst), so the loaded snapshot cannot already have left the limbo.
  epoch_manager::reader_guard guard = service_->epochs.pin();
  const snapshot* snap =
      service_->published.load(std::memory_order_acquire);
  return snapshot_view(this, std::move(guard), snap);
}

uint64_t batch_dynamic_connectivity::committed_version() const {
  assert(service_ != nullptr);
  return service_->published.load(std::memory_order_acquire)->version;
}

bool batch_dynamic_connectivity::snapshot_view::connected(
    vertex_id u, vertex_id v, uint64_t* state) const {
  // The view's pin predates this load, so the loaded snapshot can only
  // retire at the pin's epoch or later and stays alive until the view is
  // released (see epoch_manager's pin protocol).
  const snapshot& latest =
      *owner_->service_->published.load(std::memory_order_acquire);
  if (state != nullptr) *state = latest.version;
  if (u >= latest.n || v >= latest.n) return false;
  return latest.label_of(u) == latest.label_of(v);
}

// ---------------------------------------------------------------------
// Queries (Algorithm 1)
// ---------------------------------------------------------------------

bool batch_dynamic_connectivity::connected(vertex_id u, vertex_id v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  return ls_.forest_if(ls_.top())->connected(u, v);
}

std::vector<bool> batch_dynamic_connectivity::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> queries) const {
  BDC_PHASE_SPAN(span_batch, "batch.connected");
  const vertex_id n = num_vertices();
  const blocked_ett* top = ls_.forest_if(ls_.top());
  // Byte array first: std::vector<bool> bit-packing is not safe for
  // concurrent writes to neighboring indices. Out-of-range ids answer
  // false before they reach the forest.
  std::vector<uint8_t> bits(queries.size());
  parallel_for(0, queries.size(), [&](size_t i) {
    auto [u, v] = queries[i];
    bits[i] = u < n && v < n && top->connected(u, v);
  });
  return std::vector<bool>(bits.begin(), bits.end());
}

size_t batch_dynamic_connectivity::component_size(vertex_id v) const {
  if (v >= num_vertices()) return 0;
  return ls_.forest_if(ls_.top())->component_counts(v).vertices;
}

std::vector<vertex_id> batch_dynamic_connectivity::components() const {
  size_t n = num_vertices();
  const blocked_ett* top = ls_.forest_if(ls_.top());
  std::vector<std::pair<uint64_t, vertex_id>> rep_vertex(n);
  parallel_for(0, n, [&](size_t v) {
    rep_vertex[v] = {reinterpret_cast<uint64_t>(
                         top->find_rep(static_cast<vertex_id>(v))),
                     static_cast<vertex_id>(v)};
  });
  auto groups = group_by_key(std::move(rep_vertex));
  std::vector<vertex_id> labels(n);
  parallel_for(0, groups.num_groups(), [&](size_t g) {
    uint32_t st = groups.group_starts[g], en = groups.group_starts[g + 1];
    vertex_id mn = kNoVertex;
    for (uint32_t i = st; i < en; ++i)
      mn = std::min(mn, groups.records[i].second);
    for (uint32_t i = st; i < en; ++i)
      labels[groups.records[i].second] = mn;
  });
  return labels;
}

// ---------------------------------------------------------------------
// Insertion (Algorithm 2)
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::batch_insert(std::span<const edge> edges) {
  // Declared before update_scope: destruction runs in reverse, so the
  // span also covers the scope destructor's publish + epoch drain.
  BDC_PHASE_SPAN(span_batch, "batch.insert");
  // Covers the whole batch including early returns, so every call commits
  // exactly one serving state (the version stays in lockstep with the
  // caller's batch count).
  update_scope scope(*this);
  std::vector<edge> clean;
  {
    BDC_PHASE_SPAN(sp, "insert.sanitize");
    clean = sanitize(edges, num_vertices());
    clean = filter(clean, [&](const edge& e) { return !has_edge(e); });
  }
  size_t k = clean.size();
  stats_.batches_inserted++;
  stats_.edges_inserted += k;
  if (k == 0) return;

  int top = ls_.top();
  blocked_ett& f = ls_.forest(top);

  // Contract current components (dense ids of the endpoints' reps) and
  // find which edges grow the forest.
  dense_id_map<rep> comp;
  spanning_forest_result sf;
  {
    BDC_PHASE_SPAN(sp, "insert.contract");
    std::vector<vertex_id> endpoints(2 * k);
    parallel_for(0, k, [&](size_t i) {
      endpoints[2 * i] = clean[i].u;
      endpoints[2 * i + 1] = clean[i].v;
    });
    auto reps = f.batch_find_rep(endpoints);
    comp = dense_ids(reps.size(), [&](size_t i) { return reps[i]; });
    std::vector<edge> contracted(k);
    parallel_for(0, k, [&](size_t i) {
      contracted[i] = {comp.ids[2 * i], comp.ids[2 * i + 1]};
    });
    sf = spanning_forest(comp.keys.size(), contracted);
  }

  std::vector<uint8_t> is_tree(k, 0);
  parallel_for(0, sf.tree_edge_indices.size(),
               [&](size_t i) { is_tree[sf.tree_edge_indices[i]] = 1; });

  // Register everything at the top level, then link the new tree edges.
  {
    BDC_PHASE_SPAN(sp, "insert.register");
    ls_.add_edges(top, clean, is_tree);
  }
  std::vector<edge> tree_edges(sf.tree_edge_indices.size());
  parallel_for(0, tree_edges.size(), [&](size_t i) {
    tree_edges[i] = clean[sf.tree_edge_indices[i]];
  });
  // Inserted tree edges are the only top-forest mutations of this batch:
  // the incremental publish learns which components they merge, and
  // walks the ones changing label, while the tours are still apart.
  if (serving() && !tree_edges.empty()) {
    std::vector<vertex_id> seed(comp.keys.size());
    for (size_t i = 0; i < k; ++i) {
      seed[comp.ids[2 * i]] = clean[i].u;
      seed[comp.ids[2 * i + 1]] = clean[i].v;
    }
    note_merges(f, comp.keys, seed, sf.labels);
  }
  ls_.link_tree(top, tree_edges);
}

// ---------------------------------------------------------------------
// Deletion (Algorithm 3)
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::batch_delete(std::span<const edge> edges) {
  BDC_PHASE_SPAN(span_batch, "batch.delete");  // see batch_insert
  update_scope scope(*this);
  std::vector<edge> clean;
  {
    BDC_PHASE_SPAN(sp, "delete.sanitize");
    clean = sanitize(edges, num_vertices());
    clean = filter(clean, [&](const edge& e) { return has_edge(e); });
  }
  size_t k = clean.size();
  stats_.batches_deleted++;
  stats_.edges_deleted += k;
  if (k == 0) return;

  // Capture tree edges and their levels before deregistration.
  std::vector<std::pair<int, edge>> tree_edges;  // (level, edge)
  {
    BDC_PHASE_SPAN(sp, "delete.deregister");
    std::vector<std::pair<int, edge>> all(k);
    parallel_for(0, k, [&](size_t i) {
      const edge_record* rec = ls_.record_of(clean[i]);
      all[i] = {rec->is_tree ? rec->level : -1, clean[i]};
    });
    tree_edges = filter(all, [](const std::pair<int, edge>& p) {
      return p.first >= 0;
    });
  }
  stats_.tree_edges_deleted += tree_edges.size();
  // Every deleted tree edge is cut from the top forest below; both
  // endpoints seed the incremental snapshot publish (one per split half).
  for (const auto& [lvl, e] : tree_edges) note_touched(e);

  {
    BDC_PHASE_SPAN(sp, "delete.deregister");
    // Deregister all deleted edges (adjacency, counters, dictionary).
    ls_.remove_edges(clean);
  }

  if (tree_edges.empty()) return;  // connectivity unchanged

  // Cut each deleted tree edge from every forest containing it:
  // F_level(e) .. F_top.
  int top = ls_.top();
  int minl = top;
  for (auto& [lvl, e] : tree_edges) minl = std::min(minl, lvl);
  {
    BDC_PHASE_SPAN(sp, "delete.cut");
    for (int i = minl; i <= top; ++i) {
      auto subset = filter(tree_edges, [&](const std::pair<int, edge>& p) {
        return p.first <= i;
      });
      std::vector<edge> es(subset.size());
      parallel_for(0, es.size(),
                   [&](size_t j) { es[j] = subset[j].second; });
      ls_.forest(i).batch_cut(es);
    }
  }

  // Cuts enter the search at the level of the deleted tree edge.
  std::vector<std::vector<edge>> cuts_by_level(static_cast<size_t>(top) + 1);
  for (auto& [lvl, e] : tree_edges)
    cuts_by_level[static_cast<size_t>(lvl)].push_back(e);

  // Ascend, searching each level for replacement edges (Algorithm 5).
  std::vector<edge> open;      // cuts F_i has not reconnected
  std::vector<edge> buffered;  // S: new tree edges awaiting higher levels
  std::vector<uint32_t> piece_of;
  for (int i = minl; i <= top; ++i) {
    BDC_PHASE_SPAN(sp, "delete.level_search");  // one span per level
    ls_.link_tree(i, buffered);  // line 2: commit lower-level discoveries
    const auto& cl = cuts_by_level[static_cast<size_t>(i)];
    open.insert(open.end(), cl.begin(), cl.end());
    if (open.empty()) continue;
    auto pieces = resolve_cuts(i, open, piece_of);
    if (open.empty()) continue;  // S healed every cut: nothing to search
    stats_.levels_searched++;
    level_search(i, pieces, piece_of, buffered);
  }
  // `buffered` now holds every replacement promoted at any level; all of
  // them were (or end the batch) linked into the top forest, so their
  // endpoints seed the reconnected components for the snapshot publish.
  for (const edge& e : buffered) note_touched(e);
}

// ---------------------------------------------------------------------
// Shared level-search machinery
// ---------------------------------------------------------------------

std::vector<batch_dynamic_connectivity::piece>
batch_dynamic_connectivity::resolve_cuts(
    int level, std::vector<edge>& open,
    std::vector<uint32_t>& piece_of) const {
  const blocked_ett* f = ls_.forest_if(level);
  assert(f != nullptr);
  std::vector<vertex_id> ends(2 * open.size());
  parallel_for(0, open.size(), [&](size_t j) {
    ends[2 * j] = open[j].u;
    ends[2 * j + 1] = open[j].v;
  });
  auto reps = f->batch_find_rep(ends);
  // A healed cut stays healed above: F_level is a subforest of every
  // higher forest.
  auto open_end = [&](size_t i) {
    return reps[i & ~size_t{1}] != reps[i | 1];
  };
  open = pack(open, [&](size_t j) { return open_end(2 * j); });
  ends = pack(ends, open_end);
  reps = pack(reps, open_end);
  return resolve_pieces(level, ends, reps, piece_of);
}

std::vector<batch_dynamic_connectivity::piece>
batch_dynamic_connectivity::resolve_pieces(
    int level, std::span<const vertex_id> seeds, std::span<const rep> reps,
    std::vector<uint32_t>& piece_of) const {
  const blocked_ett* f = ls_.forest_if(level);
  assert(f != nullptr);
  // Group by representative.
  std::vector<std::pair<rep, uint32_t>> pairs(seeds.size());
  parallel_for(0, seeds.size(), [&](size_t i) {
    pairs[i] = {reps[i], static_cast<uint32_t>(i)};
  });
  parallel_sort(pairs);
  piece_of.resize(seeds.size());
  std::vector<piece> out;
  out.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first)
      out.push_back({seeds[pairs[i].second], pairs[i].first, 0, 0});
    piece_of[pairs[i].second] = static_cast<uint32_t>(out.size() - 1);
  }
  parallel_for(
      0, out.size(),
      [&](size_t i) {
        ett_counts c = f->component_counts(out[i].seed);
        out[i].size = c.vertices;
        out[i].tree_slots = c.tree_edges;
      },
      kWalkGrain);
  return out;
}

void batch_dynamic_connectivity::push_tree_edges(
    int level, const std::vector<piece>& active) {
  if (level == 0 || active.empty()) return;
  blocked_ett& f = ls_.forest(level);
  // Gather every level-`level` tree edge of every active piece.
  std::vector<std::vector<edge>> per_piece(active.size());
  parallel_for(
      0, active.size(),
      [&](size_t i) {
        if (active[i].tree_slots == 0) return;
        auto slots = f.fetch_tree(active[i].seed, active[i].tree_slots);
        ls_.expand_fetch(level, /*nontree=*/false, slots, per_piece[i]);
      },
      kWalkGrain);
  std::vector<edge> all = flatten(per_piece);
  sort_unique(all);  // each edge appears once per endpoint
  stats_.edges_pushed += all.size();
  ls_.move_down(level, all);
}

std::vector<edge> batch_dynamic_connectivity::fetch_nontree_edges(
    int level, const piece& p, uint64_t want) const {
  auto slots = ls_.forest_if(level)->fetch_nontree(p.seed, want);
  std::vector<edge> raw;
  ls_.expand_fetch(level, /*nontree=*/true, slots, raw);
  // Dedupe preserving tour order (an edge internal to the piece shows up
  // under both endpoints).
  std::vector<edge> out;
  out.reserve(raw.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(raw.size() * 2);
  for (const edge& e : raw) {
    if (seen.insert(edge_key(e)).second) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------
// Algorithm 5, under each fetch schedule
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::level_search(
    int level, const std::vector<piece>& pieces,
    std::span<const uint32_t> piece_of, std::vector<edge>& buffered) {
  blocked_ett& f = ls_.forest(level);
  uint64_t active_cap = ls_.capacity(level) / 2;
  size_t np = pieces.size();

  // k-piece rule: group the pieces by the open-cut graph (one group per
  // pre-batch component). A group's largest piece (ties: smallest seed
  // id) is passive when the others together fit active_cap.
  std::vector<uint8_t> passive(np, 0);
  {
    union_find groups(np);
    for (size_t j = 0; j < piece_of.size(); j += 2)
      groups.unite(piece_of[j], piece_of[j + 1]);
    std::vector<uint64_t> total(np, 0);
    std::vector<uint32_t> largest(np);  // per group root
    std::iota(largest.begin(), largest.end(), 0u);
    auto larger = [&](uint32_t a, uint32_t b) {
      return std::tie(pieces[a].size, pieces[b].seed) >
             std::tie(pieces[b].size, pieces[a].seed);
    };
    for (uint32_t i = 0; i < np; ++i) {
      const uint32_t g = groups.find(i);
      total[g] += pieces[i].size;
      if (larger(i, largest[g])) largest[g] = i;
    }
    for (uint32_t g = 0; g < np; ++g)
      if (groups.find(g) == g &&
          total[g] - pieces[largest[g]].size <= active_cap)
        passive[largest[g]] = 1;
  }

  // M: union-find over piece indices tracking supercomponent sizes
  // (line 7). Includes inactive pieces: replacement edges may merge into
  // them. A passive piece counts as larger than active_cap, so merging
  // with it deactivates the searcher and keeps its finds at this level.
  std::unordered_map<rep, uint32_t> piece_index;
  piece_index.reserve(2 * np);
  for (size_t i = 0; i < np; ++i)
    piece_index.emplace(pieces[i].handle, static_cast<uint32_t>(i));
  union_find m(np);
  std::vector<uint64_t> super_size(np);
  std::vector<uint8_t> active(np);
  std::vector<piece> active_list;
  for (size_t i = 0; i < np; ++i) {
    super_size[i] = passive[i] ? std::max(pieces[i].size, active_cap + 1)
                               : pieces[i].size;
    active[i] = super_size[i] <= active_cap ? 1 : 0;
    if (active[i]) active_list.push_back(pieces[i]);
  }
  push_tree_edges(level, active_list);  // line 5

  // Accumulated per-level state. Detached cross-piece edges remember one
  // endpoint's piece so the finalizer can bucket them by their FINAL
  // supercomponent: only supercomponents that end the level small enough
  // may land below (their bridge edges must descend with them —
  // Invariant 2; see the finalizer).
  std::vector<std::pair<edge, uint32_t>> chosen_total;    // T, with piece
  std::vector<std::pair<edge, uint32_t>> detached_cross;  // piece-crossing
  std::vector<edge> detached_within;                      // piece-internal
  std::unordered_set<uint64_t> detached_keys;

  // Fetch schedule: piece i's probe fetches min(2^w[i], remaining)
  // edges (scan_all: every remaining edge). merged_in[root] == r + 1 when
  // that supercomponent merged in round r.
  const bool restart = opts_.search == level_search_kind::simple;
  const bool scan_all = opts_.search == level_search_kind::scan_all;
  std::vector<uint32_t> w(np, 0);
  std::vector<uint32_t> merged_in(np, 0);

  uint32_t r = 0;
  bool any_active = !active_list.empty();
  while (any_active) {
    BDC_PHASE_SPAN(span_search, "search.replacement");
    stats_.doubling_phases++;

    // Probe phase: each active piece fetches its next edges.
    struct probe {
      std::vector<edge> ec;
      bool exhausted = false;
    };
    std::vector<uint32_t> act_idx;
    for (uint32_t i = 0; i < static_cast<uint32_t>(np); ++i)
      if (active[i]) act_idx.push_back(i);
    std::vector<probe> probes(act_idx.size());
    parallel_for(
        0, act_idx.size(),
        [&](size_t j) {
          const uint32_t pi = act_idx[j];
          uint64_t cmax = f.component_counts(pieces[pi].seed).nontree_edges;
          uint64_t csz =
              scan_all ? cmax
                       : std::min(uint64_t{1} << std::min(w[pi], 62u), cmax);
          probes[j].ec = fetch_nontree_edges(level, pieces[pi], csz);
          probes[j].exhausted = (csz >= cmax);
        },
        kWalkGrain);
    for (auto& pr : probes) stats_.edges_fetched += pr.ec.size();

    // Identify replacement edges (endpoints in different F_level pieces;
    // F_level is static for the whole level, so reps never go stale).
    std::vector<std::vector<edge>> repl_chunks(probes.size());
    parallel_for(
        0, probes.size(),
        [&](size_t j) {
          repl_chunks[j] = filter(probes[j].ec, [&](const edge& e) {
            return !f.connected(e.u, e.v);
          });
        },
        kWalkGrain);
    std::vector<edge> repl = flatten(repl_chunks);
    sort_unique(repl);

    // Merge supercomponents with a spanning forest over M-contracted
    // replacements (lines 16-21); sequential Kruskal over <= k edges.
    std::vector<uint32_t> repl_piece_u(repl.size());
    if (!repl.empty()) {
      std::vector<vertex_id> endpoints(2 * repl.size());
      parallel_for(0, repl.size(), [&](size_t i) {
        endpoints[2 * i] = repl[i].u;
        endpoints[2 * i + 1] = repl[i].v;
      });
      auto reps = f.batch_find_rep(endpoints);
      for (size_t i = 0; i < repl.size(); ++i) {
        auto it_u = piece_index.find(reps[2 * i]);
        auto it_v = piece_index.find(reps[2 * i + 1]);
        assert(it_u != piece_index.end() && it_v != piece_index.end());
        repl_piece_u[i] = it_u->second;
        uint32_t ru = m.find(it_u->second), rv = m.find(it_v->second);
        if (ru == rv) continue;
        uint64_t sz_merged = super_size[ru] + super_size[rv];
        m.unite(ru, rv);
        const uint32_t root = m.find(ru);
        super_size[root] = sz_merged;
        merged_in[root] = r + 1;
        chosen_total.push_back({repl[i], it_u->second});
        stats_.replacements_promoted++;
      }
    }
    std::unordered_map<uint64_t, uint32_t> repl_piece_of;
    repl_piece_of.reserve(2 * repl.size());
    for (size_t i = 0; i < repl.size(); ++i)
      repl_piece_of.emplace(edge_key(repl[i]), repl_piece_u[i]);

    // Deactivation / deferred-push decisions (lines 22-31).
    std::vector<std::vector<edge>> detach_chunks(probes.size());
    any_active = false;
    for (size_t j = 0; j < probes.size(); ++j) {
      uint32_t pi = act_idx[j];
      const uint32_t root = m.find(pi);
      if (super_size[root] <= active_cap && !probes[j].exhausted) {
        detach_chunks[j] = std::move(probes[j].ec);
        any_active = true;
        // Algorithm 4 restarts the doubling of a piece whose
        // supercomponent merged this round; Algorithm 5 never does.
        w[pi] = restart && merged_in[root] == r + 1 ? 0 : w[pi] + 1;
      } else {
        active[pi] = 0;
      }
    }
    std::vector<edge> detach = flatten(detach_chunks);
    sort_unique(detach);
    detach = filter(detach, [&](const edge& e) {
      return !detached_keys.count(edge_key(e));
    });
    if (!detach.empty()) {
      ls_.detach_edges(level, detach);
      for (const edge& e : detach) {
        detached_keys.insert(edge_key(e));
        auto it = repl_piece_of.find(edge_key(e));
        if (it != repl_piece_of.end()) {
          detached_cross.push_back({e, it->second});
        } else {
          detached_within.push_back(e);
        }
      }
    }
    ++r;
  }

  // ------------------------------------------------------------------
  // Finalize (lines 33-35). A supercomponent S is "small" if its final
  // size still fits one level down. Small S: all its detached cross
  // edges AND all its chosen bridge edges descend to level-1 together,
  // keeping Invariant 2 (a cross edge below needs its bridge below).
  // Large S: its detached cross edges re-attach at this level, and its
  // chosen edges stay here as tree edges.
  // Detached within-piece edges always descend (their piece's level-i
  // tree edges were pushed by line 5).
  // ------------------------------------------------------------------
  auto final_small = [&](uint32_t piece_idx) {
    return super_size[m.find(piece_idx)] <= active_cap;
  };

  std::vector<edge> chosen_edges(chosen_total.size());
  for (size_t i = 0; i < chosen_total.size(); ++i)
    chosen_edges[i] = chosen_total[i].first;

  // Flip chosen records to tree status (adjacency kind flip only for the
  // still-attached ones; detached edges have no adjacency entries).
  std::vector<edge> attached_chosen, detached_chosen_small,
      detached_chosen_large;
  std::vector<edge> attached_chosen_small;  // subset of attached_chosen
  for (auto& [e, pi] : chosen_total) {
    if (detached_keys.count(edge_key(e))) {
      (final_small(pi) ? detached_chosen_small : detached_chosen_large)
          .push_back(e);
    } else {
      attached_chosen.push_back(e);
      if (final_small(pi)) attached_chosen_small.push_back(e);
    }
  }
  ls_.promote_to_tree(level, attached_chosen);
  {
    std::vector<edge> detached_chosen = detached_chosen_small;
    detached_chosen.insert(detached_chosen.end(),
                           detached_chosen_large.begin(),
                           detached_chosen_large.end());
    parallel_for(0, detached_chosen.size(), [&](size_t i) {
      edge_record* rec = ls_.dict().find(edge_key(detached_chosen[i]));
      assert(rec != nullptr && rec->is_tree == 0);
      rec->is_tree = 1;
    });
  }
  ls_.link_tree(level, chosen_edges);  // line 34: F_level gets every T edge
  buffered.insert(buffered.end(), chosen_edges.begin(), chosen_edges.end());

  // Bucket detached cross edges by final supercomponent size.
  std::vector<edge> cross_small, cross_large;
  for (auto& [e, pi] : detached_cross) {
    // Skip chosen edges (already categorized above).
    (final_small(pi) ? cross_small : cross_large).push_back(e);
  }
  {
    std::unordered_set<uint64_t> chosen_keys;
    for (const edge& e : chosen_edges) chosen_keys.insert(edge_key(e));
    auto not_chosen = [&](const edge& e) {
      return !chosen_keys.count(edge_key(e));
    };
    cross_small = filter(cross_small, not_chosen);
    cross_large = filter(cross_large, not_chosen);
  }

  // Large supercomponents: re-attach their cross edges at this level
  // (endpoints are connected here now that T is linked).
  std::vector<edge> reattach = cross_large;
  reattach.insert(reattach.end(), detached_chosen_large.begin(),
                  detached_chosen_large.end());
  ls_.insert_detached(level, reattach);

  // Everything else descends.
  std::vector<edge> descend = detached_within;
  descend.insert(descend.end(), cross_small.begin(), cross_small.end());
  descend.insert(descend.end(), detached_chosen_small.begin(),
                 detached_chosen_small.end());
  if (!descend.empty()) {
    assert(level > 0);
    stats_.edges_pushed += descend.size();
    ls_.insert_detached(level - 1, descend);
    ls_.link_tree(level - 1, detached_chosen_small);
  }
  if (!attached_chosen_small.empty()) {
    // Chosen bridges of small supercomponents that were never detached:
    // move them down so future pushes inside S stay above their bridges.
    stats_.edges_pushed += attached_chosen_small.size();
    ls_.move_down(level, attached_chosen_small);
  }
}

// ---------------------------------------------------------------------
// Invariant validation
// ---------------------------------------------------------------------

invariant_report batch_dynamic_connectivity::check_invariants() const {
  auto fail = [](std::string msg) {
    return invariant_report{false, std::move(msg)};
  };
  int top = ls_.top();
  auto edges = ls_.dict().entries();

  // Substrate health + per-level structural checks.
  for (int i = 0; i <= top; ++i) {
    const blocked_ett* f = ls_.forest_if(i);
    if (f == nullptr) continue;
    if (auto err = f->check_consistency(); !err.empty())
      return fail("level " + std::to_string(i) + " ETT: " + err);
    if (const leveled_adjacency* a = ls_.adj_if(i)) {
      if (auto err = a->check_positions(ls_.dict(), i); !err.empty())
        return fail("level " + std::to_string(i) + " adjacency: " + err);
    }
    // Forest edge population: exactly the tree edges of level <= i.
    size_t expect = 0;
    for (auto& [key, rec] : edges)
      if (rec.is_tree && rec.level <= i) expect++;
    if (f->num_edges() != expect)
      return fail("level " + std::to_string(i) + ": forest has " +
                  std::to_string(f->num_edges()) + " edges, expected " +
                  std::to_string(expect));
    // The vertices level i can touch: endpoints of the tree edges F_i
    // holds (levels <= i) plus endpoints of level-i edges (which carry
    // the level's counters). With sparse activation this is EXACTLY the
    // set of vertices holding a directory slot in F_i; every other
    // vertex is a tourless singleton with zero counters, whose checks
    // the forest's own check_consistency already covers. Sweeping
    // `touched` instead of [0, n) keeps the invariant walk O(edges) per
    // level — the same bound the structure itself now obeys.
    std::vector<vertex_id> touched;
    for (auto& [key, rec] : edges) {
      if ((rec.is_tree && rec.level <= i) || rec.level == i) {
        edge e = edge_from_key(key);
        touched.push_back(e.u);
        touched.push_back(e.v);
      }
    }
    sort_unique(touched);
    if (f->active_vertices() != touched.size())
      return fail("level " + std::to_string(i) + ": " +
                  std::to_string(f->active_vertices()) +
                  " active directory slots, but " +
                  std::to_string(touched.size()) +
                  " vertices carry level-" + std::to_string(i) + " edges");
    // Invariant 1 + augmented size cross-check.
    std::unordered_map<rep, size_t> comp_count;
    for (vertex_id v : touched) comp_count[f->find_rep(v)]++;
    for (vertex_id v : touched) {
      auto cc = f->component_counts(v);
      rep handle = f->find_rep(v);
      if (cc.vertices != comp_count[handle])
        return fail("level " + std::to_string(i) +
                    ": augmented size mismatch at vertex " +
                    std::to_string(v));
      if (cc.vertices > ls_.capacity(i))
        return fail("level " + std::to_string(i) + ": component of size " +
                    std::to_string(cc.vertices) + " exceeds capacity " +
                    std::to_string(ls_.capacity(i)) + " (Invariant 1)");
    }
    // Per-vertex counters match adjacency degrees.
    const leveled_adjacency* a = ls_.adj_if(i);
    for (vertex_id v : touched) {
      auto vc = f->vertex_counts(v);
      uint32_t td = a ? a->tree_degree(v) : 0;
      uint32_t nd = a ? a->nontree_degree(v) : 0;
      if (vc.tree_edges != td || vc.nontree_edges != nd)
        return fail("level " + std::to_string(i) +
                    ": counter/degree mismatch at vertex " +
                    std::to_string(v));
    }
  }

  // Per-edge placement: tree edges in F_level..F_top; non-tree endpoints
  // connected at their level (Invariant 2's cycle property).
  for (auto& [key, rec] : edges) {
    edge e = edge_from_key(key);
    if (rec.level < 0 || rec.level > top) return fail("bad edge level");
    for (int i = 0; i <= top; ++i) {
      const blocked_ett* f = ls_.forest_if(i);
      bool should = rec.is_tree && rec.level <= i;
      bool present = f != nullptr && f->has_edge(e);
      if (should != present)
        return fail("edge placement violated at level " + std::to_string(i));
    }
    if (!rec.is_tree) {
      const blocked_ett* f = ls_.forest_if(rec.level);
      if (f == nullptr || !f->connected(e.u, e.v))
        return fail("non-tree edge's endpoints not connected at its level "
                    "(Invariant 2)");
    }
  }

  // Global connectivity agrees with a from-scratch union-find.
  {
    union_find uf(num_vertices());
    for (auto& [key, rec] : edges) {
      edge e = edge_from_key(key);
      uf.unite(e.u, e.v);
    }
    auto labels = components();
    for (size_t v = 0; v < num_vertices(); ++v) {
      vertex_id lbl = labels[v];
      if (!uf.connected(static_cast<uint32_t>(v), lbl))
        return fail("component labels disagree with union-find");
      if (labels[lbl] != lbl) return fail("non-canonical component label");
      if (uf.find(static_cast<uint32_t>(v)) !=
          uf.find(static_cast<uint32_t>(labels[v])))
        return fail("component labels disagree with union-find");
    }
    // Partition granularity: vertices with equal uf roots share labels.
    std::unordered_map<uint32_t, vertex_id> root_label;
    for (size_t v = 0; v < num_vertices(); ++v) {
      uint32_t root = uf.find(static_cast<uint32_t>(v));
      auto [it, inserted] = root_label.emplace(root, labels[v]);
      if (!inserted && it->second != labels[v])
        return fail("connected vertices carry different labels");
    }
  }
  return {};
}

}  // namespace bdc
