// Batch-link partitioning for blocked_ett. A link batch must be split
// into groups whose merged components are disjoint before groups can
// mutate concurrently: dense ids are assigned to the touched tour
// representatives (sort + unique + binary search — cheaper than a hash
// map at batch sizes), a union-find over the ids joins links that share a
// tour, and a semisort groups the batch by leader. When every
// representative is distinct the partition is trivial — each link is its
// own singleton group — and the union-find and semisort are skipped
// entirely (the dominant shape of shattered deletion batches).
// Representatives are tour-descriptor addresses (or tagged singleton
// values) as integers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "parallel/scheduler.hpp"
#include "sequence/parallel_sort.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"

namespace bdc {

/// Reusable buffers for partition_links (mutation phases are exclusive,
/// so a forest can keep one instance across batches).
struct link_partition_scratch {
  std::vector<uintptr_t> roots;
  std::vector<uint32_t> tid_u, tid_v;
};

struct link_groups {
  /// Every endpoint lives in its own tour: each link is a singleton
  /// group; `groups` is left empty.
  bool all_distinct = false;
  /// Otherwise: (leader, batch index) records grouped by leader.
  grouped_records<uint32_t, uint32_t> groups;
};

inline link_groups partition_links(std::span<const uintptr_t> rep_u,
                                   std::span<const uintptr_t> rep_v,
                                   link_partition_scratch& scratch) {
  size_t k = rep_u.size();
  auto& roots = scratch.roots;
  roots.resize(2 * k);
  parallel_for(0, k, [&](size_t i) {
    roots[i] = rep_u[i];
    roots[k + i] = rep_v[i];
  });
  parallel_sort(roots);
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  link_groups out;
  if (roots.size() == 2 * k) {
    out.all_distinct = true;
    return out;
  }
  auto& tid_u = scratch.tid_u;
  auto& tid_v = scratch.tid_v;
  tid_u.resize(k);
  tid_v.resize(k);
  parallel_for(0, k, [&](size_t i) {
    tid_u[i] = static_cast<uint32_t>(
        std::lower_bound(roots.begin(), roots.end(), rep_u[i]) -
        roots.begin());
    tid_v[i] = static_cast<uint32_t>(
        std::lower_bound(roots.begin(), roots.end(), rep_v[i]) -
        roots.begin());
  });
  union_find uf(roots.size());
  for (size_t i = 0; i < k; ++i) uf.unite(tid_u[i], tid_v[i]);
  std::vector<std::pair<uint32_t, uint32_t>> keyed(k);
  for (size_t i = 0; i < k; ++i)
    keyed[i] = {uf.find(tid_u[i]), static_cast<uint32_t>(i)};
  out.groups = group_by_key(std::move(keyed));
  return out;
}

}  // namespace bdc
