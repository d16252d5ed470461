// Sequence-primitive tests: reduce, scan, pack, filter, flatten, histogram
// against straightforward sequential references, at every size where the
// granularity rule changes shape (inline cutoff, minimum leaf, one block
// vs two), on 1, 2 and the hardware number of workers.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "parallel/primitives.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

std::vector<long> random_vec(size_t n, uint64_t seed, long mod = 1000) {
  random r(seed);
  std::vector<long> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = static_cast<long>(r.ith_rand(i, static_cast<uint64_t>(mod)));
  return v;
}

// (size, workers); workers 0 is the hardware default.
class PrimitiveSweep
    : public ::testing::TestWithParam<std::tuple<size_t, unsigned>> {
 protected:
  PrimitiveSweep() : pool_(std::get<1>(GetParam())) {}
  static size_t size() { return std::get<0>(GetParam()); }

 private:
  testing::worker_pool_guard pool_;
};

TEST_P(PrimitiveSweep, TabulateAndMap) {
  size_t n = size();
  auto v = tabulate(n, [](size_t i) { return static_cast<long>(i * 3); });
  ASSERT_EQ(v.size(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], static_cast<long>(3 * i));
  auto w = map(v, [](long x) { return x + 1; });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(w[i], v[i] + 1);
}

TEST_P(PrimitiveSweep, ReduceMatchesAccumulate) {
  size_t n = size();
  auto v = random_vec(n, 42 + n);
  long expect = std::accumulate(v.begin(), v.end(), 0L);
  EXPECT_EQ(sum(v), expect);
  EXPECT_EQ(reduce_sum(n, [&](size_t i) { return v[i]; }), expect);
}

TEST_P(PrimitiveSweep, ScanMatchesPartialSums) {
  size_t n = size();
  auto v = random_vec(n, 43 + n);
  auto expect = v;
  long total = 0;
  for (size_t i = 0; i < n; ++i) {
    long next = total + expect[i];
    expect[i] = total;
    total = next;
  }
  auto got = v;
  long got_total = exclusive_scan(got);
  EXPECT_EQ(got_total, total);
  EXPECT_EQ(got, expect);
}

TEST_P(PrimitiveSweep, PackAndFilter) {
  size_t n = size();
  auto v = random_vec(n, 44 + n);
  auto evens = filter(v, [](long x) { return x % 2 == 0; });
  std::vector<long> expect;
  for (long x : v)
    if (x % 2 == 0) expect.push_back(x);
  EXPECT_EQ(evens, expect);

  auto idx = pack_index(n, [&](size_t i) { return v[i] % 2 == 0; });
  ASSERT_EQ(idx.size(), expect.size());
  for (size_t i = 0; i < idx.size(); ++i) ASSERT_EQ(v[idx[i]], expect[i]);
}

TEST_P(PrimitiveSweep, HistogramMatchesCounts) {
  size_t n = size(), buckets = 37;
  auto v = random_vec(n, 45 + n, static_cast<long>(buckets));
  std::vector<size_t> expect(buckets, 0);
  for (long x : v) expect[static_cast<size_t>(x)]++;
  EXPECT_EQ(histogram(v, buckets), expect);
}

TEST_P(PrimitiveSweep, FlattenMatchesConcatenation) {
  // Parts of 0..6 elements: flatten's copy loop takes a work-sized grain.
  size_t n = size();
  std::vector<std::vector<long>> parts(n);
  std::vector<long> expect;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i % 7; ++j) {
      parts[i].push_back(static_cast<long>(i * 8 + j));
      expect.push_back(static_cast<long>(i * 8 + j));
    }
  }
  EXPECT_EQ(flatten(parts), expect);
}

// Sizes: the inline cutoff (internal::kSequentialCutoff = 512) and the
// minimum leaf (kMinLeaf = 128), each -1/0/+1; one block vs two
// (internal::kMinBlock = 1024: 2047 is one block, 2048 two) and
// 1023/1024/1025 around the block size itself.
static_assert(internal::kSequentialCutoff == 512 &&
                  internal::kMinLeaf == 128 && internal::kMinBlock == 1024,
              "move the PrimitiveSweep sizes with the cutoffs");
INSTANTIATE_TEST_SUITE_P(
    Sizes, PrimitiveSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 5, 100, 127, 128, 129, 511,
                                         512, 513, 1023, 1024, 1025, 2047,
                                         2048, 2049, 4096, 100003),
                       ::testing::ValuesIn(testing::kWorkerGrid)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, unsigned>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_w" +
             testing::workers_name(std::get<1>(info.param));
    });

TEST(Primitives, FlattenPreservesOrder) {
  std::vector<std::vector<long>> parts = {{1, 2}, {}, {3}, {4, 5, 6}, {}};
  EXPECT_EQ(flatten(parts), (std::vector<long>{1, 2, 3, 4, 5, 6}));
  std::vector<std::vector<long>> empty;
  EXPECT_TRUE(flatten(empty).empty());
}

TEST(Primitives, HistogramMatchesCounts) {
  random r(7);
  size_t n = 50000, buckets = 37;
  std::vector<uint32_t> keys(n);
  std::vector<size_t> expect(buckets, 0);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<uint32_t>(r.ith_rand(i, buckets));
    expect[keys[i]]++;
  }
  EXPECT_EQ(histogram(keys, buckets), expect);
}

TEST(Primitives, ReduceCustomMonoid) {
  auto v = random_vec(9999, 5);
  long mx = *std::max_element(v.begin(), v.end());
  long got = reduce_index<long>(
      v.size(), [&](size_t i) { return v[i]; }, LONG_MIN,
      [](long a, long b) { return std::max(a, b); });
  EXPECT_EQ(got, mx);
}

}  // namespace
}  // namespace bdc
