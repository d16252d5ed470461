// Shared test helper: the substrate grid the differential suites sweep —
// both Euler-tour backends (treap, blocked), one row each. One table,
// included by ett_test, connectivity_test, connectivity_property_test,
// snapshot_publish_test, substrate_fuzz_test and vertex_directory_test,
// so the parameterized suites and the fuzz differential can never drift
// onto different grids when a substrate is added.
//
// The engine suites (connectivity_test, connectivity_property_test) sweep
// kEngineConfigs instead: both backends with the snapshot read service
// off and on. Serving changes the update path itself (each batch records
// its publish delta and publishes a snapshot), so those rows also check
// the published labels against a from-scratch walk wherever the suite
// checks its invariants (expect_snapshot_matches).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"

namespace bdc::testing {

struct sub_config {
  const char* name;
  substrate sub;
  bool serve = false;  // turns options::concurrent_reads on

  [[nodiscard]] options apply(options o) const {
    o.substrate = sub;
    if (serve) o.concurrent_reads = true;
    return o;
  }
};

inline constexpr sub_config kSubConfigs[] = {
    {"treap", substrate::treap},
    {"blocked", substrate::blocked},
};

inline constexpr sub_config kEngineConfigs[] = {
    {"treap", substrate::treap},
    {"blocked", substrate::blocked},
    {"treap_serve", substrate::treap, true},
    {"blocked_serve", substrate::blocked, true},
};

/// When `dc` serves reads, asserts its published snapshot labels equal a
/// from-scratch components() walk. No-op otherwise.
inline void expect_snapshot_matches(const batch_dynamic_connectivity& dc,
                                    const std::string& where) {
  if (!dc.serving()) return;
  std::vector<vertex_id> published = dc.snapshot_query().components();
  ASSERT_EQ(published, dc.components()) << where << ": stale snapshot";
}

}  // namespace bdc::testing
