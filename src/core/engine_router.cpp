#include "core/engine_router.hpp"

#include "obs/telemetry.hpp"
#include "parallel/scheduler.hpp"
#include "util/timer.hpp"

namespace bdc {

engine_router::engine_router(vertex_id n, options opts)
    : n_(n),
      opts_(opts),
      inc_(n),
      cache_rep_(n, 0),
      cache_stamp_(n, 0) {}

size_t engine_router::num_edges() const {
  return dynamic_ ? dynamic_->num_edges() : inc_.num_edges();
}

void engine_router::note_phase(op_kind k) const {
  if (last_op_ != op_kind::none && last_op_ != k) stats_.phase_switches++;
  last_op_ = k;
}

void engine_router::invalidate_cache() const {
  ++cache_epoch_;
  stats_.cache_invalidations++;
  // Memo epoch bump: one instant per update batch on the trace timeline,
  // so cache-hit droughts line up visibly with the batches causing them.
  obs::trace_instant("router.memo_invalidate");
}

void engine_router::promote() {
  BDC_PHASE_SPAN(span_promote, "router.promote");
  obs::trace_instant("router.promote");  // marks the one-shot hand-off
  timer t;
  std::vector<edge> accumulated = inc_.edge_list();
  dynamic_ = std::make_unique<batch_dynamic_connectivity>(n_, opts_);
  // One wholesale batch_insert IS the promotion: Algorithm 2 computes a
  // spanning forest of the accumulated set and registers every non-tree
  // edge directly at the top level — the batch history is never replayed.
  dynamic_->batch_insert(accumulated);
  stats_.promotions++;
  stats_.promotion_edges += accumulated.size();
  stats_.promotion_micros += static_cast<uint64_t>(t.elapsed_us());
}

void engine_router::batch_insert(std::span<const edge> es) {
  note_phase(op_kind::insert);
  stats_.insert_batches++;
  if (dynamic_) {
    dynamic_->batch_insert(es);
    stats_.batches_on_dynamic++;
  } else {
    inc_.batch_insert(es);
    stats_.batches_on_unionfind++;
  }
  invalidate_cache();
}

void engine_router::batch_delete(std::span<const edge> es) {
  note_phase(op_kind::erase);
  stats_.delete_batches++;
  if (!dynamic_) {
    bool touches = false;
    for (const edge& e : es) {
      if (inc_.has_edge(e)) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      // Deleting only absent edges needs no HDT machinery — stay on the
      // union-find engine (a deletion of a never-inserted edge must not
      // force promotion).
      stats_.dropped_delete_batches++;
      stats_.batches_on_unionfind++;
      invalidate_cache();
      return;
    }
    promote();
  }
  dynamic_->batch_delete(es);
  stats_.batches_on_dynamic++;
  invalidate_cache();
}

std::vector<bool> engine_router::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> qs) const {
  note_phase(op_kind::query);
  stats_.query_batches++;
  // Gather the endpoints this epoch has not resolved yet. Stamping at
  // gather time both dedupes within the batch and records the claim; the
  // memo write lands before any answer below reads it.
  std::vector<vertex_id> misses;
  auto probe = [&](vertex_id v) {
    if (v >= n_) return;
    stats_.cache_lookups++;
    if (cache_stamp_[v] == cache_epoch_) {
      stats_.cache_hits++;
      return;
    }
    cache_stamp_[v] = cache_epoch_;
    misses.push_back(v);
  };
  for (const auto& [u, v] : qs) {
    probe(u);
    probe(v);
  }
  if (!misses.empty()) {
    if (dynamic_) {
      const level_structure& ls = dynamic_->levels();
      auto reps = ls.forest_if(ls.top())->batch_find_rep(misses);
      for (size_t i = 0; i < misses.size(); ++i) {
        cache_rep_[misses[i]] =
            static_cast<uint64_t>(reinterpret_cast<uintptr_t>(reps[i]));
      }
    } else {
      parallel_for(0, misses.size(), [&](size_t i) {
        cache_rep_[misses[i]] = inc_.representative(misses[i]);
      });
    }
  }
  std::vector<bool> out(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    auto [u, v] = qs[i];
    out[i] = u < n_ && v < n_ && cache_rep_[u] == cache_rep_[v];
  }
  return out;
}

bool engine_router::connected(vertex_id u, vertex_id v) const {
  std::pair<vertex_id, vertex_id> q{u, v};
  return batch_connected({&q, 1})[0];
}

std::vector<vertex_id> engine_router::components() const {
  return dynamic_ ? dynamic_->components() : inc_.components();
}

}  // namespace bdc
