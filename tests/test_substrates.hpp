// Shared test helper: the substrate configurations the differential
// suites sweep — every uniform backend plus the mixed per-level policy
// for every ordered (primary, low) pair of distinct backends.
// One table, included by ett_test, connectivity_test,
// connectivity_property_test, and substrate_fuzz_test, so the
// parameterized suites and the fuzz differential can never drift onto
// different grids when a substrate or policy shape is added.
#pragma once

#include "core/batch_connectivity.hpp"
#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"

namespace bdc::testing {

// A substrate configuration: a uniform backend, or the mixed per-level
// policy (options::policy) handing the levels below the threshold to a
// second backend. Each mixed pair keeps a different pair of substrates
// side by side in one hierarchy, so edges pushed down across the
// threshold move between those two representations.
struct sub_config {
  const char* name;
  substrate sub;
  level_policy policy;

  [[nodiscard]] options apply(options o) const {
    o.substrate = sub;
    o.policy = policy;
    return o;
  }
};

inline constexpr sub_config kSubConfigs[] = {
    {"skiplist", substrate::skiplist, {}},
    {"treap", substrate::treap, {}},
    {"blocked", substrate::blocked, {}},
    {"mixed", substrate::skiplist, {4, substrate::blocked}},
    {"mixed_skiplist_treap", substrate::skiplist, {4, substrate::treap}},
    {"mixed_treap_blocked", substrate::treap, {4, substrate::blocked}},
    {"mixed_treap_skiplist", substrate::treap, {4, substrate::skiplist}},
    {"mixed_blocked_skiplist", substrate::blocked, {4, substrate::skiplist}},
    {"mixed_blocked_treap", substrate::blocked, {4, substrate::treap}},
};

// The substrate-surface grid for suites that drive an ett_forest
// directly (no level structure / policy): every backend.
struct ett_config {
  const char* name;
  substrate sub;
};

inline constexpr ett_config kEttConfigs[] = {
    {"skiplist", substrate::skiplist},
    {"treap", substrate::treap},
    {"blocked", substrate::blocked},
};

}  // namespace bdc::testing
