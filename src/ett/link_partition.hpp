// Batch-link partitioning for blocked_ett. A link batch must be split
// into groups whose merged components are disjoint before groups can
// mutate concurrently: dense ids are assigned to the touched tour
// representatives (one semisort, sequence/semisort.hpp's dense_ids), a
// union-find over the ids joins links that share a tour, and a semisort
// groups the batch by leader. When every representative is distinct the
// partition is trivial — each link is its own singleton group — and the
// union-find and semisort are skipped entirely (the dominant shape of
// shattered deletion batches). Representatives are tour-descriptor
// addresses (or tagged singleton values) as integers.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"

namespace bdc {

struct link_groups {
  /// Every endpoint lives in its own tour: each link is a singleton
  /// group; `groups` is left empty.
  bool all_distinct = false;
  /// Otherwise: (leader, batch index) records grouped by leader.
  grouped_records<uint32_t, uint32_t> groups;
};

inline link_groups partition_links(std::span<const uintptr_t> rep_u,
                                   std::span<const uintptr_t> rep_v) {
  size_t k = rep_u.size();
  auto tid = dense_ids(2 * k, [&](size_t i) {
    return i < k ? rep_u[i] : rep_v[i - k];
  });
  link_groups out;
  if (tid.keys.size() == 2 * k) {
    out.all_distinct = true;
    return out;
  }
  union_find uf(tid.keys.size());
  for (size_t i = 0; i < k; ++i) uf.unite(tid.ids[i], tid.ids[k + i]);
  std::vector<std::pair<uint32_t, uint32_t>> keyed(k);
  for (size_t i = 0; i < k; ++i)
    keyed[i] = {uf.find(tid.ids[i]), static_cast<uint32_t>(i)};
  out.groups = group_by_key(std::move(keyed));
  return out;
}

}  // namespace bdc
