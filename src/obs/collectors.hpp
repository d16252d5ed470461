// Bridges from the per-instance statistics structs to the telemetry
// snapshot. Each structure keeps its single-writer plain-integer stats
// struct (the cheapest possible hot path, and tests read them
// per-instance); these collectors are the ONE place those fields get
// named for export, so the text/JSONL reports and any future consumer
// agree on the catalog. Adding a field to a stats struct without
// extending its collector is the bug these functions exist to make
// obvious — keep them adjacent in review.
#pragma once

#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "obs/telemetry.hpp"
#include "util/node_pool.hpp"

namespace bdc::obs {

/// Core dynamic-connectivity counters (bdc::statistics), including the
/// publish block when any snapshot was published.
void collect(metrics_snapshot& snap, const statistics& st);

/// Engine-router counters.
void collect(metrics_snapshot& snap, const router_statistics& st);

/// Node-pool counters and retention gauges. The input is the value
/// snapshot from node_pool::stats() / pool_stats() — point-in-time
/// semantics documented on node_pool::stats().
void collect(metrics_snapshot& snap, const node_pool::stats_snapshot& st);

/// HDT reference-structure counters.
void collect(metrics_snapshot& snap, const hdt_connectivity::statistics& st);

}  // namespace bdc::obs
