// Parallel batch-dynamic graph connectivity (Acar, Anderson, Blelloch,
// Dhulipala — SPAA 2019): the library's primary data structure.
//
// Maintains an n-vertex undirected graph under batches of edge insertions,
// edge deletions, and connectivity queries:
//   * batch_insert  — Algorithm 2: O(k lg(1+n/k)) expected work, O(lg n)
//     depth w.h.p. per batch of k edges.
//   * batch_delete  — Algorithms 3-5: O(lg n lg(1+n/Δ)) expected amortized
//     work per edge (Δ = average deletion batch size) with the interleaved
//     search (Theorem 9); O(lg^3 n) depth w.h.p. (Theorem 7).
//   * batch_connected — Algorithm 1: O(k lg(1+n/k)) expected work, O(lg n)
//     depth w.h.p. (Theorem 3).
//
// The structure keeps lg n nested spanning forests F_0 ⊆ … ⊆ F_top over
// batch-parallel Euler tour trees, subject to the HDT invariants:
//   Invariant 1: components of G_i have at most 2^(i+1) vertices.
//   Invariant 2: F_top is a minimum spanning forest w.r.t. edge levels.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/level_structure.hpp"
#include "util/epoch.hpp"
#include "util/types.hpp"

namespace bdc {

/// The fetch schedule of batch_delete's level search (Algorithm 5 with
/// deferred pushes and the k-piece rule under every schedule): how many
/// of its remaining non-tree edges a searching piece fetches per round.
enum class level_search_kind {
  /// Algorithm 5: min(2^w, remaining), w growing by one every round — a
  /// single doubling sequence per level. O(lg n) phases per level. Default.
  interleaved,
  /// Algorithm 4: as interleaved, but w restarts at 0 after the piece's
  /// supercomponent merges. O(lg^2 n) phases per level.
  simple,
  /// Ablation: every remaining edge at once (the "natural idea" of §3.3
  /// that breaks the charging argument).
  scan_all,
};

struct options {
  level_search_kind search = level_search_kind::interleaved;
  /// Enables the epoch-snapshot read service: snapshot_query() becomes
  /// available and may run from any thread CONCURRENTLY with
  /// batch_insert/batch_delete. Each update batch publishes an immutable
  /// connectivity snapshot, rewriting only the vertices whose label
  /// changes (a full O(n) walk when those exceed n/4), and retires the
  /// one it supersedes through the epoch manager. The phased API
  /// (connected / batch_connected / ...) keeps its exclusive-phase
  /// contract either way.
  bool concurrent_reads = false;
};

/// Canonical human-readable label of an options configuration for A/B
/// reports (stream_runner, benchmarks): "blocked" (the Euler-tour forest
/// every level uses), plus "+serve" when the epoch-snapshot read service
/// is enabled.
[[nodiscard]] std::string config_label(const options& opts);

/// Cumulative instrumentation (BM_LevelSearchAblation in bench_micro,
/// the CostModel tests, and the paper's depth/work accounting). All
/// counters are totals since construction.
struct statistics {
  uint64_t batches_inserted = 0;
  uint64_t batches_deleted = 0;
  uint64_t edges_inserted = 0;
  uint64_t edges_deleted = 0;
  uint64_t tree_edges_deleted = 0;
  uint64_t levels_searched = 0;   // ParallelLevelSearch invocations
  uint64_t doubling_phases = 0;   // search rounds (edge-fetch phases)
  uint64_t edges_fetched = 0;     // non-tree edges examined
  uint64_t edges_pushed = 0;      // level decreases (tree + non-tree)
  uint64_t replacements_promoted = 0;  // non-tree edges become tree edges
  // Read-service publish accounting (options::concurrent_reads only).
  uint64_t snapshots_published = 0;  // committed snapshots (incl. version 0)
  uint64_t publishes_full = 0;       // full-walk rebuilds (set-up, fallback)
  uint64_t publish_relabeled = 0;    // vertices rewritten incrementally
  uint64_t publish_micros = 0;       // cumulative publish_snapshot() time
};

struct invariant_report {
  bool ok = true;
  std::string message;
};

class batch_dynamic_connectivity {
 public:
  explicit batch_dynamic_connectivity(vertex_id n, options opts = {});

  [[nodiscard]] vertex_id num_vertices() const { return ls_.num_vertices(); }
  [[nodiscard]] size_t num_edges() const { return ls_.num_edges(); }
  [[nodiscard]] int num_levels() const { return ls_.num_levels(); }

  /// Inserts a batch of edges. Self-loops, duplicates within the batch,
  /// edges already present, and edges with an endpoint outside [0, n) are
  /// ignored. (Algorithm 2.)
  void batch_insert(std::span<const edge> edges);
  void insert(edge e) { batch_insert({&e, 1}); }

  /// Deletes a batch of edges; entries not currently present (including
  /// any with an endpoint outside [0, n)) are ignored. (Algorithm 3 + the
  /// configured level search.)
  void batch_delete(std::span<const edge> edges);
  void erase(edge e) { batch_delete({&e, 1}); }

  /// Answers k connectivity queries. A query with an endpoint outside
  /// [0, n) answers false. (Algorithm 1.)
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> queries) const;
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;

  [[nodiscard]] bool has_edge(edge e) const {
    return ls_.record_of(e) != nullptr;
  }

  /// Size (vertex count) of v's connected component; 0 for an id outside
  /// [0, n).
  [[nodiscard]] size_t component_size(vertex_id v) const;

  /// Component labels: labels[v] == labels[u] iff connected; the label is
  /// the smallest vertex id in the component.
  [[nodiscard]] std::vector<vertex_id> components() const;

  [[nodiscard]] const statistics& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Deep validation of every paper invariant plus forest consistency
  /// (tests; cost O(m lg n + n) — the per-level sweeps walk only the
  /// vertices the level's edges touch, the O(n) is the one global
  /// union-find cross-check).
  [[nodiscard]] invariant_report check_invariants() const;

  /// Access to the underlying hierarchy (benchmarks / diagnostics).
  [[nodiscard]] const level_structure& levels() const { return ls_; }

  /// Aggregated node-pool counters across every materialized forest.
  /// Safe to call while readers are pinned (the counters are atomics);
  /// values are exact between batches, approximate mid-batch.
  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return ls_.pool_stats();
  }
  /// Releases retained pool memory of emptied forests (MUTATION
  /// quiescence required — asserted against the read service's writer
  /// flag when serving; pinned readers are fine, they never touch forest
  /// memory), keeping up to `keep_bytes` of spares per forest; returns
  /// the total bytes released.
  size_t trim_pools(size_t keep_bytes = 0) {
    assert((service_ == nullptr || !service_->epochs.writers_active()) &&
           "trim_pools requires mutation quiescence");
    return ls_.trim_pools(keep_bytes);
  }

  // ------------------------------------------------------------------
  // Epoch-snapshot read service (options::concurrent_reads).
  //
  // Every update batch ends by publishing an immutable snapshot of the
  // component labels and sizes at that batch boundary. snapshot_query()
  // pins an epoch and returns a view that may be used from any thread
  // WHILE update batches run. Two consistency levels:
  //   * connected(u, v[, &state]) — freshest committed answer, from the
  //     latest published snapshot; `state` receives its version (the
  //     committed batch count the answer reflects).
  //   * connected_pinned / components / component_size — frozen at the
  //     snapshot the view pinned; stable across later batches.
  // Every answer corresponds to SOME committed batch boundary — never a
  // torn mid-batch state: readers touch only published snapshots, never
  // the forests a batch is mutating.
  //
  // Views pin an epoch, which keeps every snapshot superseded since the
  // pin alive: keep them short-lived, and never let one outlive the
  // structure.
  // ------------------------------------------------------------------

  class snapshot_view;

  /// True when constructed with options::concurrent_reads.
  [[nodiscard]] bool serving() const { return service_ != nullptr; }
  /// Pins the current epoch and snapshot. Requires serving().
  [[nodiscard]] snapshot_view snapshot_query() const;
  /// Number of committed update batches (the `state` a fresh view sees).
  [[nodiscard]] uint64_t committed_version() const;
  /// The service's epoch manager (tests / diagnostics); null if !serving().
  [[nodiscard]] epoch_manager* read_epochs() const {
    return service_ ? &service_->epochs : nullptr;
  }

 private:
  using rep = ett_rep;

  /// Immutable per-batch connectivity snapshot. labels[v] is the smallest
  /// vertex id of v's component; sizes[l] the component size stored at
  /// its label l (entries at dead labels go stale but are unreachable —
  /// size_of is only consulted at live labels, and every publish rewrites
  /// the size of each label a batch revives or whose component it
  /// changes).
  ///
  /// Storage is a chunked copy-on-write table: both arrays are split into
  /// fixed kChunkSize-entry chunks held by shared_ptr. Publishing a new
  /// version copies the chunk-pointer vectors (O(n / kChunkSize)) and
  /// clones only the chunks the batch touched, so untouched chunks are
  /// shared between versions by pointer and a pinned snapshot_view stays
  /// frozen for free. A superseded snapshot retires through the epoch
  /// limbo; chunks it solely owns (cloned-out by later versions) are
  /// freed transitively with it.
  struct snapshot {
    static constexpr size_t kChunkLog = 12;
    static constexpr size_t kChunkSize = size_t{1} << kChunkLog;
    using label_chunk = std::array<vertex_id, kChunkSize>;
    using size_chunk = std::array<uint32_t, kChunkSize>;

    uint64_t version = 0;
    vertex_id n = 0;
    std::vector<std::shared_ptr<label_chunk>> labels;
    std::vector<std::shared_ptr<size_chunk>> sizes;

    [[nodiscard]] vertex_id label_of(vertex_id v) const {
      return (*labels[v >> kChunkLog])[v & (kChunkSize - 1)];
    }
    [[nodiscard]] uint32_t size_of(vertex_id label) const {
      return (*sizes[label >> kChunkLog])[label & (kChunkSize - 1)];
    }
  };

  struct service_state {
    epoch_manager epochs;
    std::atomic<const snapshot*> published{nullptr};
    ~service_state() { delete published.load(std::memory_order_acquire); }
  };

  /// RAII batch bracket: on exit publishes the post-batch snapshot,
  /// advances the epoch, and frees the superseded snapshots no reader can
  /// observe anymore.
  class update_scope {
   public:
    explicit update_scope(batch_dynamic_connectivity& owner);
    ~update_scope();

   private:
    batch_dynamic_connectivity& owner_;
  };

  /// Publishes the post-batch snapshot. The incremental path applies
  /// this batch's publish_delta; `force_full` (construction) rebuilds
  /// from a full walk, as does the automatic fallback when the vertices
  /// to walk exceed n/4.
  void publish_snapshot(bool force_full);
  /// Full O(n) rebuild (components() walk + per-label counting).
  [[nodiscard]] snapshot* build_full_snapshot(uint64_t version) const;
  /// O(relabelled) rebuild sharing untouched chunks with `prev`; returns
  /// nullptr to request the full-walk fallback.
  [[nodiscard]] snapshot* build_incremental_snapshot(uint64_t version,
                                                     const snapshot& prev);
  /// Records endpoints of a top-forest cut or replacement link for the
  /// incremental publish of a delete batch. No-op unless serving.
  void note_touched(edge e) {
    if (!serving()) return;
    delta_.touched.push_back(e.u);
    delta_.touched.push_back(e.v);
  }
  /// Insert batches, before the top-forest link: for every group of
  /// pre-batch components that the new tree edges merge, records the
  /// group's label (the least of the members' old labels, read from the
  /// published snapshot) and walks every member but the one holding it.
  /// `members` are the contracted components' reps, `member_seed` any
  /// vertex of each, and `group[c]` names c's merge group.
  void note_merges(const blocked_ett& top, std::span<const rep> members,
                   std::span<const vertex_id> member_seed,
                   std::span<const uint32_t> group);
  /// Delete batches, at publish: turns the touched endpoints into the
  /// relabels of the pieces that lose their old label (or sets
  /// publish_delta::full when they exceed n/4).
  void plan_splits(const snapshot& prev);

  /// What this batch changed, as far as the incremental publish needs
  /// to know (collected only while serving(); consumed and cleared by
  /// publish_snapshot).
  struct publish_delta {
    /// Delete batches: endpoints of every top-forest cut and promoted
    /// replacement. Every post-batch component whose membership changed
    /// contains at least one of them.
    std::vector<vertex_id> touched;
    /// (vertex, new label) for every vertex whose label changes.
    std::vector<std::pair<vertex_id, vertex_id>> relabel;
    /// (label, component size) for every component the batch changed.
    std::vector<std::pair<vertex_id, uint32_t>> resize;
    bool full = false;  // the walk would exceed n/4: rebuild from scratch
    void clear() {
      touched.clear();
      relabel.clear();
      resize.clear();
      full = false;
    }
  };

  options opts_;
  level_structure ls_;
  mutable statistics stats_;
  std::unique_ptr<service_state> service_;
  publish_delta delta_;
  blocked_ett* top_forest_ = nullptr;  // cached &ls_.forest(top); stable

  /// A still-disconnected component ("piece") during a level search.
  struct piece {
    vertex_id seed;         // any vertex inside the piece
    rep handle;             // F_level representative (stable per level)
    uint64_t size;          // vertex count
    uint64_t tree_slots;    // incident same-level tree slots
  };

  /// Drops from `open` every cut whose endpoints F_level connects and
  /// resolves the pieces the rest end in. Cut j's endpoints are seeds 2j
  /// and 2j+1; `piece_of` receives each seed's piece index.
  std::vector<piece> resolve_cuts(int level, std::vector<edge>& open,
                                  std::vector<uint32_t>& piece_of) const;
  /// One piece per distinct rep; reps[i] is seeds[i]'s F_level rep.
  /// `piece_of` receives each seed's piece index.
  std::vector<piece> resolve_pieces(int level,
                                    std::span<const vertex_id> seeds,
                                    std::span<const rep> reps,
                                    std::vector<uint32_t>& piece_of) const;
  void push_tree_edges(int level, const std::vector<piece>& active);
  /// Fetches up to `want` non-tree slots of `p`, expands and dedupes to
  /// edges in tour order.
  std::vector<edge> fetch_nontree_edges(int level, const piece& p,
                                        uint64_t want) const;

  /// Searches level `level` over the pieces resolve_cuts returned
  /// (`piece_of` is its output for them) under opts_.search's fetch
  /// schedule; appends the replacements it promotes to `buffered` (S).
  void level_search(int level, const std::vector<piece>& pieces,
                    std::span<const uint32_t> piece_of,
                    std::vector<edge>& buffered);
};

/// Epoch-pinned read view; see the service section above. Move-only (it
/// holds an epoch guard); destroy promptly to let reclamation proceed.
class batch_dynamic_connectivity::snapshot_view {
 public:
  snapshot_view(snapshot_view&&) noexcept = default;
  snapshot_view& operator=(snapshot_view&&) noexcept = default;
  snapshot_view(const snapshot_view&) = delete;
  snapshot_view& operator=(const snapshot_view&) = delete;

  /// Freshest committed connectivity answer, from the latest published
  /// snapshot (loaded under this view's pin, so it is never older than
  /// the pinned one). `state`, if non-null, receives that snapshot's
  /// version: the committed batch count the answer reflects.
  /// Out-of-range ids answer false.
  [[nodiscard]] bool connected(vertex_id u, vertex_id v,
                               uint64_t* state = nullptr) const;
  /// Connectivity at exactly the pinned snapshot (frozen semantics).
  [[nodiscard]] bool connected_pinned(vertex_id u, vertex_id v) const {
    if (u >= snap_->n || v >= snap_->n) return false;
    return snap_->label_of(u) == snap_->label_of(v);
  }
  /// Component size at the pinned snapshot; 0 for out-of-range ids.
  [[nodiscard]] size_t component_size(vertex_id v) const {
    if (v >= snap_->n) return 0;
    return snap_->size_of(snap_->label_of(v));
  }
  /// Component labels at the pinned snapshot, materialized on demand into
  /// a flat vector. Deliberately O(n) time AND space per call: the
  /// snapshot itself is a chunked copy-on-write table shared between
  /// versions, so a flat view has to be assembled. Call once and reuse;
  /// prefer the point probes (connected_pinned / component_size) when a
  /// full labelling is not actually needed.
  [[nodiscard]] std::vector<vertex_id> components() const;
  /// The committed batch count of the pinned snapshot.
  [[nodiscard]] uint64_t version() const { return snap_->version; }

 private:
  friend class batch_dynamic_connectivity;
  snapshot_view(const batch_dynamic_connectivity* owner,
                epoch_manager::reader_guard guard, const snapshot* snap)
      : owner_(owner), guard_(std::move(guard)), snap_(snap) {}

  const batch_dynamic_connectivity* owner_;
  epoch_manager::reader_guard guard_;
  const snapshot* snap_;
};

}  // namespace bdc
