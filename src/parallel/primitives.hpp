// Work-efficient data-parallel sequence primitives (paper §2, "Parallel
// Primitives"): tabulate, map, reduce, scan, pack/filter, flatten and
// histogram. All are O(n) work and O(lg n) depth (up to the scheduler's
// granularity constant), matching the bounds the paper assumes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/scheduler.hpp"

namespace bdc {

/// Builds a vector of length n with element i equal to f(i).
template <typename F>
auto tabulate(size_t n, const F& f) {
  using T = std::decay_t<decltype(f(size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

/// Elementwise map over a sequence.
template <typename Seq, typename F>
auto map(const Seq& in, const F& f) {
  using T = std::decay_t<decltype(f(in[0]))>;
  std::vector<T> out(in.size());
  parallel_for(0, in.size(), [&](size_t i) { out[i] = f(in[i]); });
  return out;
}

namespace internal {

/// Smallest block of the blocked two-pass algorithms (reduce, scan,
/// histogram, the semisort's counting sort): an input below 2 * kMinBlock
/// elements is one block and runs inline.
inline constexpr size_t kMinBlock = 1024;

/// Number of blocks for an n-element blocked pass: 4 per worker, each of
/// at least kMinBlock elements.
inline size_t num_blocks(size_t n) {
  return std::clamp<size_t>(n / kMinBlock, 1, 4 * size_t{num_workers()});
}

/// Runs body(b, lo, hi) over the `blocks` contiguous blocks of [0, n).
/// Grain 1: a block of at least kMinBlock elements pays for its fork.
template <typename F>
void for_each_block(size_t n, size_t blocks, const F& body) {
  size_t block_size = (n + blocks - 1) / blocks;
  parallel_for(
      0, blocks,
      [&](size_t b) {
        size_t lo = b * block_size;
        body(b, lo, std::min(n, lo + block_size));
      },
      1);
}

}  // namespace internal

/// Reduction with an associative combine function over [0, n) of f(i).
template <typename T, typename F, typename Combine>
T reduce_index(size_t n, const F& f, T identity, const Combine& combine) {
  if (n == 0) return identity;
  size_t blocks = internal::num_blocks(n);
  std::vector<T> partial(blocks, identity);
  internal::for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    T acc = identity;
    for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
    partial[b] = acc;
  });
  T acc = identity;
  for (size_t b = 0; b < blocks; ++b) acc = combine(acc, partial[b]);
  return acc;
}

/// Sum of f(i) over [0, n).
template <typename F>
auto reduce_sum(size_t n, const F& f) {
  using T = std::decay_t<decltype(f(size_t{0}))>;
  return reduce_index<T>(n, f, T{}, [](T a, T b) { return a + b; });
}

template <typename Seq>
auto sum(const Seq& in) {
  using T = std::decay_t<decltype(in[0])>;
  return reduce_sum(in.size(), [&](size_t i) -> T { return in[i]; });
}

/// Exclusive prefix sums in place; returns the grand total.
template <typename T>
T exclusive_scan(std::vector<T>& a) {
  size_t n = a.size();
  if (n == 0) return T{};
  size_t blocks = internal::num_blocks(n);
  std::vector<T> block_sum(blocks);
  internal::for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    T acc{};
    for (size_t i = lo; i < hi; ++i) acc += a[i];
    block_sum[b] = acc;
  });
  T total{};
  for (size_t b = 0; b < blocks; ++b) {
    T next = total + block_sum[b];
    block_sum[b] = total;
    total = next;
  }
  internal::for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    T acc = block_sum[b];
    for (size_t i = lo; i < hi; ++i) {
      T next = acc + a[i];
      a[i] = acc;
      acc = next;
    }
  });
  return total;
}

namespace internal {
/// Output slots of a pack: offsets[i] is the number of kept indices below
/// i, so index i is kept iff offsets[i + 1] != offsets[i] (and offsets[n]
/// is the output size). Evaluates each flag once.
template <typename Flag>
std::vector<size_t> pack_offsets(size_t n, const Flag& flag) {
  std::vector<size_t> offsets(n + 1, 0);
  parallel_for(0, n, [&](size_t i) { offsets[i] = flag(i) ? 1u : 0u; });
  exclusive_scan(offsets);
  return offsets;
}
}  // namespace internal

/// Pack: keep in[i] where flag(i) is true, preserving order.
template <typename Seq, typename Flag>
auto pack(const Seq& in, const Flag& flag) {
  using T = std::decay_t<decltype(in[0])>;
  size_t n = in.size();
  std::vector<size_t> offsets = internal::pack_offsets(n, flag);
  std::vector<T> out(offsets[n]);
  parallel_for(0, n, [&](size_t i) {
    if (offsets[i + 1] != offsets[i]) out[offsets[i]] = in[i];
  });
  return out;
}

/// Filter: keep elements satisfying the predicate (applied to the value).
template <typename Seq, typename Pred>
auto filter(const Seq& in, const Pred& pred) {
  return pack(in, [&](size_t i) { return pred(in[i]); });
}

/// Indices i in [0, n) where flag(i) holds.
template <typename Flag>
std::vector<size_t> pack_index(size_t n, const Flag& flag) {
  std::vector<size_t> offsets = internal::pack_offsets(n, flag);
  std::vector<size_t> out(offsets[n]);
  parallel_for(0, n, [&](size_t i) {
    if (offsets[i + 1] != offsets[i]) out[offsets[i]] = i;
  });
  return out;
}

/// Flatten: concatenates `parts` into a single sequence.
template <typename T>
std::vector<T> flatten(const std::vector<std::vector<T>>& parts) {
  std::vector<size_t> offsets(parts.size());
  parallel_for(0, parts.size(),
               [&](size_t i) { offsets[i] = parts[i].size(); });
  size_t total = exclusive_scan(offsets);
  std::vector<T> out(total);
  parallel_for(
      0, parts.size(),
      [&](size_t i) {
        std::copy(parts[i].begin(), parts[i].end(), out.begin() + offsets[i]);
      },
      work_grain(parts.size(), total));
  return out;
}

/// Counts occurrences of keys in [0, buckets).
template <typename Seq>
std::vector<size_t> histogram(const Seq& keys, size_t buckets) {
  // Per-block local counting to avoid contention, then a tree combine.
  size_t n = keys.size();
  size_t blocks = internal::num_blocks(n);
  std::vector<std::vector<size_t>> local(blocks);
  internal::for_each_block(n, blocks, [&](size_t b, size_t lo, size_t hi) {
    auto& counts = local[b];
    counts.assign(buckets, 0);
    for (size_t i = lo; i < hi; ++i) {
      assert(static_cast<size_t>(keys[i]) < buckets);
      ++counts[static_cast<size_t>(keys[i])];
    }
  });
  std::vector<size_t> out(buckets, 0);
  parallel_for(0, buckets, [&](size_t k) {
    size_t acc = 0;
    for (size_t b = 0; b < blocks; ++b) acc += local[b][k];
    out[k] = acc;
  });
  return out;
}

}  // namespace bdc
