// Batched update-stream generators: turn a static graph into a sequence of
// insertion/deletion/query batches with a controllable average deletion
// batch size Δ — the parameter Theorem 9's O(lg n lg(1 + n/Δ)) bound is
// stated in. bench_micro's BM_DeleteBatchSweep sweeps Δ with these
// streams.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace bdc {

struct update_batch {
  enum class kind { insert, erase, query };
  kind op = kind::insert;
  std::vector<edge> edges;                                // insert/erase
  std::vector<std::pair<vertex_id, vertex_id>> queries;   // query
};

using update_stream = std::vector<update_batch>;

/// Inserts all of `graph` in batches of `batch_size`, in random order.
update_stream make_insertion_stream(const std::vector<edge>& graph,
                                    size_t batch_size, uint64_t seed);

/// Inserts `graph`, then deletes every edge in random order in batches of
/// `delete_batch_size` (the Δ knob), optionally interleaving `queries_per_
/// batch` random connectivity queries after each deletion batch.
update_stream make_deletion_stream(const std::vector<edge>& graph,
                                   vertex_id n, size_t insert_batch_size,
                                   size_t delete_batch_size,
                                   size_t queries_per_batch, uint64_t seed);

/// A sliding-window stream: keeps roughly `window` edges alive; each round
/// inserts `batch` new edges of `graph` and deletes the `batch` oldest.
/// Models the time-evolving streams of the paper's motivation ([32, 33]).
update_stream make_sliding_window_stream(const std::vector<edge>& graph,
                                         size_t window, size_t batch,
                                         uint64_t seed);

/// A phase-skewed mixed trace (the engine_router's target workload):
///   1. insert ramp — all of `graph` except a held-out churn reserve, in
///      batches of `batch`, a small query batch every 2nd insert batch;
///   2. churn — 16 rounds alternating a deletion and an insertion batch
///      of batch/8 edges (deletes sample the alive set, inserts drain the
///      reserve), each round followed by a small query batch;
///   3. query flood — `flood_batches` consecutive batches of
///      `flood_queries` uniform queries, no updates in between;
///   4. deletion burst — up to 4 batches of `batch` random alive edges,
///      each followed by a small query batch, plus one final query batch.
/// Deterministic in `seed`.
update_stream make_phase_skewed_stream(const std::vector<edge>& graph,
                                       vertex_id n, size_t batch,
                                       size_t flood_batches,
                                       size_t flood_queries, uint64_t seed);

/// A hub-churn trace (the sparse-activation stress workload): rank the
/// base graph's vertices by degree, call the top 16 "hubs" (the skewed
/// head of an RMAT / power-law base), and after an insert ramp of the
/// whole graph run `rounds` rounds that delete every hub-incident edge
/// in bursts of `batch` and then re-insert them, with small query
/// batches interleaved. Each burst forces replacement searches around
/// the hubs, so edges sink levels and the touched vertex set per level
/// stays concentrated near the hubs — on a vertex space of n >> touched
/// ids this is the workload where O(active) per-level memory beats the
/// dense O(n)-per-level layout by the widest margin. Deterministic in
/// `seed`.
update_stream make_hub_churn_stream(const std::vector<edge>& graph,
                                    vertex_id n, size_t batch,
                                    size_t rounds, uint64_t seed);

/// Uniform random query batches.
std::vector<std::pair<vertex_id, vertex_id>> make_query_batch(
    vertex_id n, size_t k, uint64_t seed);

/// In-place Fisher–Yates with the library's deterministic RNG.
void shuffle_edges(std::vector<edge>& es, uint64_t seed);

}  // namespace bdc
