// One level's Euler-tour forest: a `std::variant` owning one model of the
// `ett_substrate` concept (ett_substrate.hpp), chosen at runtime
// (options::substrate).
//
// Every forwarder dispatches with `std::visit`, and because both
// substrates are concrete `final` classes, the calls inside each visit
// arm are direct (inlinable) member calls. Callers with per-element loops
// should hoist the dispatch once around the whole loop instead of paying
// it per element:
//
//   forest.visit([&](auto& f) {            // one dispatch...
//     parallel_for(0, k, [&](size_t i) {
//       out[i] = f.connected(qs[i].first, qs[i].second);  // ...N direct calls
//     });
//   });
//
// The alternatives are `unique_ptr`s rather than values: an `ett_forest`
// stays cheaply movable, while the substrate itself keeps a stable
// address — epoch binding and relaxed readers hold on to it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "ett/blocked_ett.hpp"
#include "ett/ett_counts.hpp"
#include "ett/ett_substrate.hpp"
#include "ett/treap_ett.hpp"
#include "obs/telemetry.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

class ett_forest {
 public:
  /// Materializes an empty n-vertex forest over substrate `s`.
  ett_forest(bdc::substrate s, vertex_id n, uint64_t seed)
      : impl_(make(s, n, seed)) {}

  /// The alternatives are ordered like `enum class substrate`.
  [[nodiscard]] bdc::substrate substrate_kind() const {
    return static_cast<bdc::substrate>(impl_.index());
  }

  /// One dispatch, then `fn` runs on the concrete substrate reference. Use
  /// this to hoist the dispatch out of per-element loops.
  template <typename F>
  decltype(auto) visit(F&& fn) {
    return std::visit([&](auto& p) -> decltype(auto) { return fn(*p); },
                      impl_);
  }
  template <typename F>
  decltype(auto) visit(F&& fn) const {
    return std::visit(
        [&](const auto& p) -> decltype(auto) { return fn(std::as_const(*p)); },
        impl_);
  }

  // ------------------------------------------------------------------
  // Forwarders: the ett_substrate surface, one visit per call. Tour
  // enumeration (for_each_tour_vertex) has none: call it inside visit.
  // ------------------------------------------------------------------

  [[nodiscard]] size_t num_vertices() const {
    return visit([](auto& f) { return f.num_vertices(); });
  }
  [[nodiscard]] size_t num_edges() const {
    return visit([](auto& f) { return f.num_edges(); });
  }

  // The three mutating batch ops carry phase spans: instrumenting the
  // forwarder covers both substrates at once, and the empty-batch
  // guard keeps the no-op calls that pepper the level loop out of the
  // histograms (a span on a 0-edge batch is pure noise).
  void batch_link(std::span<const edge> links) {
    if (links.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_link");
    visit([&](auto& f) { f.batch_link(links); });
  }
  void batch_cut(std::span<const edge> cuts) {
    if (cuts.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_cut");
    visit([&](auto& f) { f.batch_cut(cuts); });
  }
  void batch_add_counts(std::span<const count_delta> deltas) {
    if (deltas.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_add_counts");
    visit([&](auto& f) { f.batch_add_counts(deltas); });
  }
  void link(edge e) { batch_link({&e, 1}); }
  void cut(edge e) { batch_cut({&e, 1}); }

  [[nodiscard]] bool has_edge(edge e) const {
    return visit([&](auto& f) { return f.has_edge(e); });
  }
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const {
    return visit([&](auto& f) { return f.connected(u, v); });
  }
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> queries) const {
    return visit([&](auto& f) { return f.batch_connected(queries); });
  }

  [[nodiscard]] ett_rep find_rep(vertex_id v) const {
    return visit([&](auto& f) { return f.find_rep(v); });
  }
  [[nodiscard]] std::vector<ett_rep> batch_find_rep(
      std::span<const vertex_id> vs) const {
    return visit([&](auto& f) { return f.batch_find_rep(vs); });
  }

  [[nodiscard]] ett_counts component_counts(vertex_id v) const {
    return visit([&](auto& f) { return f.component_counts(v); });
  }
  [[nodiscard]] uint32_t component_size(vertex_id v) const {
    return component_counts(v).vertices;
  }
  [[nodiscard]] ett_counts vertex_counts(vertex_id v) const {
    return visit([&](auto& f) { return f.vertex_counts(v); });
  }

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_nontree(
      vertex_id v, uint64_t want) const {
    return visit([&](auto& f) { return f.fetch_nontree(v, want); });
  }
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_tree(
      vertex_id v, uint64_t want) const {
    return visit([&](auto& f) { return f.fetch_tree(v, want); });
  }

  [[nodiscard]] std::vector<vertex_id> component_vertices(
      vertex_id v) const {
    return visit([&](auto& f) { return f.component_vertices(v); });
  }

  [[nodiscard]] std::string check_consistency() const {
    return visit([](auto& f) { return f.check_consistency(); });
  }

  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return visit([](auto& f) { return f.pool_stats(); });
  }
  size_t trim_pool(size_t keep_bytes = 0) {
    return visit([&](auto& f) { return f.trim_pool(keep_bytes); });
  }
  /// Vertices currently holding a sparse-directory slot in this forest.
  [[nodiscard]] uint64_t active_vertices() const {
    return visit([](auto& f) { return f.active_vertices(); });
  }
  /// Bytes retained by this forest's per-vertex directory.
  [[nodiscard]] size_t directory_bytes() const {
    return visit([](auto& f) { return f.directory_bytes(); });
  }
  /// Bytes this forest holds in all: pool blocks plus the directory's
  /// root table.
  [[nodiscard]] size_t retained_bytes() const {
    return visit([](auto& f) { return f.retained_bytes(); });
  }

  // Read-side snapshot contract (see ett_substrate.hpp). Only blocked_ett
  // answers relaxed reads and defers frees through an epoch limbo; the
  // treap returns nullopt / ignores the epoch calls, and its concurrent
  // readers are served from the published snapshot instead.
  [[nodiscard]] bool supports_relaxed_reads() const {
    return visit([](auto& f) { return relaxed_reads<decltype(f)>; });
  }
  [[nodiscard]] std::optional<bool> connected_relaxed(vertex_id u,
                                                      vertex_id v) const {
    return visit([&](auto& f) -> std::optional<bool> {
      if constexpr (relaxed_reads<decltype(f)>)
        return f.connected_relaxed(u, v);
      return std::nullopt;
    });
  }
  void bind_read_epochs(epoch_manager* em) {
    visit([&](auto& f) {
      if constexpr (relaxed_reads<decltype(f)>) f.bind_read_epochs(em);
    });
  }
  size_t drain_limbo() {
    return visit([](auto& f) -> size_t {
      if constexpr (relaxed_reads<decltype(f)>) return f.drain_limbo();
      return 0;
    });
  }

 private:
  using impl = std::variant<std::unique_ptr<treap_ett>,
                            std::unique_ptr<blocked_ett>>;

  template <typename F>
  static constexpr bool relaxed_reads =
      std::is_same_v<std::remove_cvref_t<F>, blocked_ett>;

  static impl make(bdc::substrate s, vertex_id n, uint64_t seed) {
    if (s == substrate::treap) return std::make_unique<treap_ett>(n, seed);
    return std::make_unique<blocked_ett>(n, seed);
  }

  impl impl_;
};

}  // namespace bdc
