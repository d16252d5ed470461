#include "obs/collectors.hpp"

namespace bdc::obs {

void collect(metrics_snapshot& snap, const statistics& st) {
  snap.add_counter("core.batches_inserted", st.batches_inserted);
  snap.add_counter("core.batches_deleted", st.batches_deleted);
  snap.add_counter("core.edges_inserted", st.edges_inserted);
  snap.add_counter("core.edges_deleted", st.edges_deleted);
  snap.add_counter("core.tree_edges_deleted", st.tree_edges_deleted);
  snap.add_counter("core.levels_searched", st.levels_searched);
  snap.add_counter("core.doubling_phases", st.doubling_phases);
  snap.add_counter("core.edges_fetched", st.edges_fetched);
  snap.add_counter("core.edges_pushed", st.edges_pushed);
  snap.add_counter("core.replacements_promoted", st.replacements_promoted);
  if (st.snapshots_published > 0) {
    snap.add_counter("publish.snapshots", st.snapshots_published);
    snap.add_counter("publish.full_walks", st.publishes_full);
    snap.add_counter("publish.relabeled", st.publish_relabeled);
    snap.add_counter("publish.micros", st.publish_micros);
  }
}

void collect(metrics_snapshot& snap, const router_statistics& st) {
  snap.add_counter("router.insert_batches", st.insert_batches);
  snap.add_counter("router.delete_batches", st.delete_batches);
  snap.add_counter("router.phase_switches", st.phase_switches);
  snap.add_counter("router.batches_on_unionfind", st.batches_on_unionfind);
  snap.add_counter("router.batches_on_dynamic", st.batches_on_dynamic);
  snap.add_counter("router.dropped_delete_batches",
                   st.dropped_delete_batches);
  snap.add_counter("router.promotions", st.promotions);
  snap.add_counter("router.promotion_edges", st.promotion_edges);
  snap.add_counter("router.promotion_micros", st.promotion_micros);
}

void collect(metrics_snapshot& snap, const node_pool::stats_snapshot& st) {
  snap.add_counter("pool.fresh", st.fresh);
  snap.add_counter("pool.recycled", st.recycled);
  snap.add_counter("pool.freed", st.freed);
  snap.add_counter("pool.trimmed_bytes", st.trimmed_bytes);
  snap.add_gauge("pool.blocks", static_cast<int64_t>(st.blocks));
  snap.add_gauge("pool.spare_blocks", static_cast<int64_t>(st.spare_blocks));
  snap.add_gauge("pool.outstanding", static_cast<int64_t>(st.outstanding()));
  snap.add_gauge("pool.retained_bytes",
                 static_cast<int64_t>(st.retained_bytes()));
}

void collect(metrics_snapshot& snap, const hdt_connectivity::statistics& st) {
  snap.add_counter("hdt.edges_inserted", st.edges_inserted);
  snap.add_counter("hdt.edges_deleted", st.edges_deleted);
  snap.add_counter("hdt.tree_edges_deleted", st.tree_edges_deleted);
  snap.add_counter("hdt.replacements_promoted", st.replacements_promoted);
  snap.add_counter("hdt.edges_pushed", st.edges_pushed);
  snap.add_counter("hdt.levels_searched", st.levels_searched);
}

}  // namespace bdc::obs
