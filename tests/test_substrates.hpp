// Shared test helper: the configuration grid the differential suites
// sweep — the blocked Euler-tour forest pinned to 1 and 2 workers and on
// the default pool. One table, included by ett_test, connectivity_test,
// connectivity_property_test, snapshot_publish_test and
// vertex_directory_test, so the parameterized suites can never drift
// onto different grids. Each test holds a worker_pool_guard for its
// row's `workers`.
//
// The pinned rows matter because the forest's batch link, cut and
// add-counts take a sequential path on a 1-worker pool and a grouped
// parallel one otherwise: without them, a suite that runs only on the
// default pool of a multi-core machine never reaches the sequential path
// for batches of kParallelMutationCutoff or more.
//
// The engine suites (connectivity_test, connectivity_property_test) sweep
// kEngineConfigs instead: every worker row with the snapshot read service
// off and on. Serving changes the update path itself (each batch records
// its publish delta and publishes a snapshot), so those rows also check
// the published labels against a from-scratch walk wherever the suite
// checks its invariants (expect_snapshot_matches).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch_connectivity.hpp"

namespace bdc::testing {

struct sub_config {
  const char* name;
  unsigned workers = 0;  // pool size the row runs on; 0 = the default
  bool serve = false;    // turns options::concurrent_reads on

  [[nodiscard]] options apply(options o) const {
    if (serve) o.concurrent_reads = true;
    return o;
  }
};

inline constexpr sub_config kSubConfigs[] = {
    {"blocked_w1", 1},
    {"blocked_w2", 2},
    {"blocked", 0},
};

inline constexpr sub_config kEngineConfigs[] = {
    {"blocked_w1", 1},
    {"blocked_w2", 2},
    {"blocked", 0},
    {"blocked_w1_serve", 1, true},
    {"blocked_w2_serve", 2, true},
    {"blocked_serve", 0, true},
};

/// Test-name part of a level search's fetch schedule.
inline const char* search_name(level_search_kind k) {
  return k == level_search_kind::interleaved ? "interleaved"
         : k == level_search_kind::simple    ? "simple"
                                             : "scanall";
}

/// When `dc` serves reads, asserts its published snapshot labels equal a
/// from-scratch components() walk. No-op otherwise.
inline void expect_snapshot_matches(const batch_dynamic_connectivity& dc,
                                    const std::string& where) {
  if (!dc.serving()) return;
  std::vector<vertex_id> published = dc.snapshot_query().components();
  ASSERT_EQ(published, dc.components()) << where << ": stale snapshot";
}

}  // namespace bdc::testing
