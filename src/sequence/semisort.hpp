// Parallel semisort / group-by (Gu, Shun, Sun, Blelloch, SPAA 2015 — paper
// §2 "Parallel Primitives"): reorder (key, value) records so equal keys are
// contiguous, in O(n) expected work and O(lg n) depth, by hashing keys into
// buckets with a parallel counting sort and grouping within each
// (expected-constant-size) bucket.
//
// The grouped output is flattened: `records` holds the reordered pairs and
// `group_starts` delimits maximal runs of equal keys, avoiding per-group
// allocations on the hot path of batch updates. `dense_ids` builds on it
// to give n keys dense ids (the paper's contraction relabel).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace bdc {

template <typename K, typename V>
struct grouped_records {
  std::vector<std::pair<K, V>> records;   // equal keys contiguous
  std::vector<uint32_t> group_starts;     // indices of group beginnings
                                          // (plus records.size() sentinel)
  [[nodiscard]] size_t num_groups() const {
    return group_starts.empty() ? 0 : group_starts.size() - 1;
  }
  [[nodiscard]] const K& group_key(size_t g) const {
    return records[group_starts[g]].first;
  }
  [[nodiscard]] size_t group_size(size_t g) const {
    return group_starts[g + 1] - group_starts[g];
  }
};

namespace internal {

/// Parallel counting sort of `in` by bucket(in[i]) into `out`.
/// Buckets must be < num_buckets. Stable within a block but not globally
/// (irrelevant for semisort).
template <typename T, typename BucketFn>
void counting_sort_by_bucket(const std::vector<T>& in, std::vector<T>& out,
                             size_t num_buckets, const BucketFn& bucket,
                             std::vector<size_t>& bucket_offsets_out) {
  size_t n = in.size();
  size_t blocks = num_blocks(n);
  // counts[b * num_buckets + k] = occurrences of bucket k in block b
  std::vector<size_t> counts(blocks * num_buckets, 0);
  for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    size_t* local = counts.data() + b * num_buckets;
    for (size_t i = lo; i < hi; ++i) ++local[bucket(in[i])];
  });
  // Offsets: bucket-major prefix sums so output is bucket-contiguous.
  std::vector<size_t> offsets(blocks * num_buckets);
  size_t total = 0;
  bucket_offsets_out.assign(num_buckets + 1, 0);
  for (size_t k = 0; k < num_buckets; ++k) {
    bucket_offsets_out[k] = total;
    for (size_t b = 0; b < blocks; ++b) {
      offsets[b * num_buckets + k] = total;
      total += counts[b * num_buckets + k];
    }
  }
  bucket_offsets_out[num_buckets] = total;
  out.resize(n);
  for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    size_t* local = offsets.data() + b * num_buckets;
    for (size_t i = lo; i < hi; ++i) out[local[bucket(in[i])]++] = in[i];
  });
}

}  // namespace internal

/// Semisorts `pairs` by key and computes group boundaries.
/// KeyHash must be a 64-bit hash; defaults to hash64 of the key cast to
/// uint64_t (fine for integral keys).
template <typename K, typename V, typename KeyHash>
grouped_records<K, V> group_by_key(std::vector<std::pair<K, V>> pairs,
                                   const KeyHash& key_hash) {
  using P = std::pair<K, V>;
  const auto by_key = [](const P& a, const P& b) {
    return std::less<K>{}(a.first, b.first);
  };
  grouped_records<K, V> result;
  size_t n = pairs.size();
  if (n == 0) {
    result.group_starts = {0};
    result.group_starts.clear();
    return result;
  }
  if (n <= 2048) {
    // Small batches: one sequential sort by key.
    std::sort(pairs.begin(), pairs.end(), by_key);
    result.records = std::move(pairs);
  } else {
    size_t num_buckets =
        std::min<size_t>(next_pow2(n / 256 + 1), size_t{1} << 16);
    uint64_t mask = num_buckets - 1;
    std::vector<size_t> bucket_offsets;
    internal::counting_sort_by_bucket(
        pairs, result.records, num_buckets,
        [&](const P& p) { return key_hash(p.first) & mask; }, bucket_offsets);
    // Sort each (expected small) bucket by key to make equal keys
    // contiguous (the bucket already holds one hash range). Grain 1: a
    // bucket holds about 256 records, a sort worth its fork.
    parallel_for(
        0, num_buckets,
        [&](size_t k) {
          auto lo = result.records.begin() +
                    static_cast<ptrdiff_t>(bucket_offsets[k]);
          auto hi = result.records.begin() +
                    static_cast<ptrdiff_t>(bucket_offsets[k + 1]);
          std::sort(lo, hi, by_key);
        },
        1);
  }
  // Group boundaries: positions where the key changes.
  const auto& rec = result.records;
  auto starts = pack_index(
      n, [&](size_t i) { return i == 0 || rec[i].first != rec[i - 1].first; });
  result.group_starts.resize(starts.size() + 1);
  parallel_for(0, starts.size(), [&](size_t i) {
    result.group_starts[i] = static_cast<uint32_t>(starts[i]);
  });
  result.group_starts.back() = static_cast<uint32_t>(n);
  return result;
}

/// hash64 of an integral or pointer key.
template <typename K>
uint64_t hash_key(const K& k) {
  if constexpr (std::is_pointer_v<K>)
    return hash64(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(k)));
  else
    return hash64(static_cast<uint64_t>(k));
}

template <typename K, typename V>
grouped_records<K, V> group_by_key(std::vector<std::pair<K, V>> pairs) {
  return group_by_key(std::move(pairs), hash_key<K>);
}

/// Dense relabelling of n keys: `ids[i]` names key_of(i), equal keys get
/// equal ids, the ids run over [0, keys.size()), and keys[ids[i]] ==
/// key_of(i). One semisort: O(n) expected work, no comparison sort of the
/// whole input. `keys` come in no particular order.
template <typename K>
struct dense_id_map {
  std::vector<K> keys;        // the distinct keys, indexed by id
  std::vector<uint32_t> ids;  // per input position
};

template <typename KeyOf>
auto dense_ids(size_t n, const KeyOf& key_of) {
  using K = std::decay_t<decltype(key_of(size_t{0}))>;
  std::vector<std::pair<K, uint32_t>> keyed(n);
  parallel_for(0, n, [&](size_t i) {
    keyed[i] = {key_of(i), static_cast<uint32_t>(i)};
  });
  auto groups = group_by_key(std::move(keyed));
  dense_id_map<K> out;
  out.keys.resize(groups.num_groups());
  out.ids.resize(n);
  parallel_for(
      0, groups.num_groups(),
      [&](size_t g) {
        out.keys[g] = groups.group_key(g);
        for (uint32_t j = groups.group_starts[g];
             j < groups.group_starts[g + 1]; ++j)
          out.ids[groups.records[j].second] = static_cast<uint32_t>(g);
      },
      work_grain(groups.num_groups(), n));
  return out;
}

}  // namespace bdc
