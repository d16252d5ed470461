// Semisort / group-by and parallel-sort tests against sequential models.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sequence/parallel_sort.hpp"
#include "sequence/semisort.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

class GroupBySweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(GroupBySweep, GroupsMatchSequentialMap) {
  auto [n, key_space] = GetParam();
  random r(n * 31 + key_space);
  std::vector<std::pair<uint32_t, uint64_t>> pairs(n);
  std::map<uint32_t, std::multiset<uint64_t>> expect;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = static_cast<uint32_t>(r.ith_rand(2 * i, key_space));
    uint64_t v = r.ith_rand(2 * i + 1);
    pairs[i] = {k, v};
    expect[k].insert(v);
  }
  auto grouped = group_by_key(pairs);
  EXPECT_EQ(grouped.records.size(), n);
  EXPECT_EQ(grouped.num_groups(), expect.size());
  std::map<uint32_t, std::multiset<uint64_t>> got;
  for (size_t g = 0; g < grouped.num_groups(); ++g) {
    uint32_t key = grouped.group_key(g);
    ASSERT_FALSE(got.count(key)) << "key split across groups";
    auto& bucket = got[key];
    for (uint32_t i = grouped.group_starts[g];
         i < grouped.group_starts[g + 1]; ++i) {
      ASSERT_EQ(grouped.records[i].first, key) << "foreign key in group";
      bucket.insert(grouped.records[i].second);
    }
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GroupBySweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{100, 3},
                      std::pair<size_t, size_t>{1000, 1000},
                      std::pair<size_t, size_t>{2049, 300},
                      std::pair<size_t, size_t>{5000, 2},
                      std::pair<size_t, size_t>{100000, 512},
                      std::pair<size_t, size_t>{100000, 100000}));

TEST(GroupBy, SingleKey) {
  std::vector<std::pair<uint32_t, uint64_t>> pairs(5000, {7u, 1u});
  auto grouped = group_by_key(pairs);
  ASSERT_EQ(grouped.num_groups(), 1u);
  EXPECT_EQ(grouped.group_key(0), 7u);
  EXPECT_EQ(grouped.group_size(0), 5000u);
}

// dense_ids: (n, key space, workers). Sizes straddle group_by_key's
// sequential-sort cutoff (n <= 2048) and its bucketed path; key spaces
// give all-distinct keys (key space >> n), heavy duplicates, and a
// single key.
class DenseIdSweep
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<size_t, uint64_t>, unsigned>> {};

TEST_P(DenseIdSweep, IdsAreDenseAndNameTheirKeys) {
  auto [n, key_space] = std::get<0>(GetParam());
  testing::worker_pool_guard pool(std::get<1>(GetParam()));
  random r(n * 7 + key_space);
  std::vector<uint64_t> in(n);
  for (size_t i = 0; i < n; ++i) in[i] = r.ith_rand(i, key_space);
  auto d = dense_ids(n, [&](size_t i) { return in[i]; });

  ASSERT_EQ(d.ids.size(), n);
  EXPECT_EQ(d.keys.size(), std::set<uint64_t>(in.begin(), in.end()).size());
  EXPECT_EQ(std::set<uint64_t>(d.keys.begin(), d.keys.end()).size(),
            d.keys.size())
      << "a key holds two ids";
  std::vector<uint8_t> used(d.keys.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_LT(d.ids[i], d.keys.size()) << "id out of range at " << i;
    ASSERT_EQ(d.keys[d.ids[i]], in[i]) << "id names another key at " << i;
    used[d.ids[i]] = 1;
  }
  EXPECT_EQ(std::count(used.begin(), used.end(), 0), 0) << "ids not dense";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DenseIdSweep,
    ::testing::Combine(
        ::testing::Values(std::tuple<size_t, uint64_t>{0, 1},
                          std::tuple<size_t, uint64_t>{1, 1},
                          std::tuple<size_t, uint64_t>{2048, 1},
                          std::tuple<size_t, uint64_t>{2048, uint64_t{1} << 60},
                          std::tuple<size_t, uint64_t>{2048, 5},
                          std::tuple<size_t, uint64_t>{2049, 1},
                          std::tuple<size_t, uint64_t>{50000, uint64_t{1} << 60},
                          std::tuple<size_t, uint64_t>{50000, 7}),
        ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::tuple<size_t, uint64_t>, unsigned>>& info) {
      const size_t n = std::get<0>(std::get<0>(info.param));
      const uint64_t space = std::get<1>(std::get<0>(info.param));
      return "n" + std::to_string(n) + "_keys" +
             (space > n ? std::string("distinct") : std::to_string(space)) +
             "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(DenseIds, PointerKeys) {
  std::vector<int> cells(3000);
  std::vector<const int*> in(6000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = &cells[(i * 7) % 3000];
  auto d = dense_ids(in.size(), [&](size_t i) { return in[i]; });
  ASSERT_EQ(d.keys.size(), cells.size());
  for (size_t i = 0; i < in.size(); ++i) ASSERT_EQ(d.keys[d.ids[i]], in[i]);
  EXPECT_EQ(d.ids[0], d.ids[3000]);
}

class SortSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SortSweep, MatchesStdSort) {
  size_t n = GetParam();
  random r(n + 17);
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = r.ith_rand(i, 1000);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  parallel_sort(v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSweep,
                         ::testing::Values(0, 1, 2, 100, 4096, 4097, 50000,
                                           250000));

TEST(Sort, SortUniqueRemovesDuplicates) {
  std::vector<int> v = {5, 3, 5, 1, 3, 3, 9};
  sort_unique(v);
  EXPECT_EQ(v, (std::vector<int>{1, 3, 5, 9}));
}

TEST(Sort, CustomComparator) {
  random r(3);
  std::vector<uint64_t> v(20000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = r.ith_rand(i);
  auto expect = v;
  std::sort(expect.begin(), expect.end(), std::greater<>());
  parallel_sort(v, std::greater<>());
  EXPECT_EQ(v, expect);
}

}  // namespace
}  // namespace bdc
