#include "core/engine_router.hpp"

#include "obs/telemetry.hpp"
#include "util/timer.hpp"

namespace bdc {

engine_router::engine_router(vertex_id n, options opts)
    : n_(n), opts_(opts), inc_(n) {}

size_t engine_router::num_edges() const {
  return dynamic_ ? dynamic_->num_edges() : inc_.num_edges();
}

void engine_router::note_phase(op_kind k) {
  if (last_op_ != op_kind::none && last_op_ != k) stats_.phase_switches++;
  last_op_ = k;
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
      return;
    }
    promote();
  }
  dynamic_->batch_delete(es);
  stats_.batches_on_dynamic++;
}

std::vector<bool> engine_router::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> qs) const {
  return dynamic_ ? dynamic_->batch_connected(qs) : inc_.batch_connected(qs);
}

bool engine_router::connected(vertex_id u, vertex_id v) const {
  return dynamic_ ? dynamic_->connected(u, v) : inc_.connected(u, v);
}

std::vector<vertex_id> engine_router::components() const {
  return dynamic_ ? dynamic_->components() : inc_.components();
}

}  // namespace bdc
