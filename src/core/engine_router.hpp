// Workload-adaptive engine router (ROADMAP: "workload-adaptive front
// end"). Real update streams are phase-skewed — long insert-only
// stretches, deletion bursts, query floods — and the paper's HDT structure
// pays its full O(lg n)-level machinery even during phases where a
// union-find would do. This front end keeps the batch API of
// batch_dynamic_connectivity and routes each batch to the cheapest engine
// for the stream phase observed so far:
//
//   * Insert-only epochs run on the work-efficient incremental engine
//     (Simsiri et al., Euro-Par 2016): O(k α(n)) expected work per batch
//     of k insertions, no level structure at all.
//   * The first deletion batch that touches a present edge triggers a
//     one-shot PROMOTION: the accumulated edge set is bulk-loaded into a
//     fresh batch_dynamic_connectivity with a single batch_insert —
//     Algorithm 2 computes a spanning forest of the whole set and
//     registers the non-tree edges directly, O(m lg(1+n/m)) expected
//     work, NOT a replay of the insert history. Deletion batches that
//     touch no present edge (absent edges, self-loops, hostile ids) are
//     dropped without promoting.
//   * After promotion every update goes to the HDT structure; its
//     existing non-tree fast path already short-circuits deletion batches
//     that never touch the spanning forest.
//   * Query batches go straight to the active engine: union-find finds
//     before promotion, the top-level forest's find_rep (Algorithm 1)
//     after. Both are a few loads per endpoint, so the router keeps no
//     query state of its own.
//
// Same exclusive-phase contract as the underlying engines: queries may
// run concurrently with each other (they write nothing the router owns),
// but not with updates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "baselines/incremental_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "util/types.hpp"

namespace bdc {

/// Cumulative router instrumentation (stream_runner report,
/// BM_RouterMixedTrace).
struct router_statistics {
  uint64_t insert_batches = 0;
  uint64_t delete_batches = 0;
  uint64_t phase_switches = 0;     // insert <-> delete transitions
  uint64_t batches_on_unionfind = 0;
  uint64_t batches_on_dynamic = 0;
  uint64_t dropped_delete_batches = 0;  // pre-promotion, touched nothing
  uint64_t promotions = 0;              // 0 or 1
  uint64_t promotion_edges = 0;         // edges bulk-loaded at promotion
  uint64_t promotion_micros = 0;        // one-shot bulk-load wall time

  bool operator==(const router_statistics&) const = default;
};

class engine_router {
 public:
  /// `opts` configures the batch_dynamic_connectivity built at promotion.
  explicit engine_router(vertex_id n, options opts = {});

  [[nodiscard]] vertex_id num_vertices() const { return n_; }
  /// Edge count of whichever engine is active (set semantics throughout).
  [[nodiscard]] size_t num_edges() const;
  /// True once the first effective deletion promoted to the HDT engine.
  [[nodiscard]] bool promoted() const { return dynamic_ != nullptr; }

  /// Same input semantics as batch_dynamic_connectivity::batch_insert:
  /// self-loops, duplicates, present edges, and out-of-range ids are
  /// ignored.
  void batch_insert(std::span<const edge> es);
  /// Same input semantics as batch_dynamic_connectivity::batch_delete;
  /// triggers the one-shot promotion on the first batch that deletes a
  /// present edge.
  void batch_delete(std::span<const edge> es);

  /// Out-of-range endpoints answer false.
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) const;
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;
  /// Min-vertex component labels (both engines share the contract).
  [[nodiscard]] std::vector<vertex_id> components() const;

  [[nodiscard]] const router_statistics& stats() const { return stats_; }
  /// The promoted HDT engine, or nullptr pre-promotion (diagnostics).
  [[nodiscard]] const batch_dynamic_connectivity* dynamic_engine() const {
    return dynamic_.get();
  }

 private:
  enum class op_kind : uint8_t { none, insert, erase };

  void note_phase(op_kind k);
  /// Bulk-loads the accumulated edge set into a fresh HDT structure.
  void promote();

  vertex_id n_;
  options opts_;
  incremental_connectivity inc_;
  std::unique_ptr<batch_dynamic_connectivity> dynamic_;
  router_statistics stats_;
  op_kind last_op_ = op_kind::none;
};

}  // namespace bdc
