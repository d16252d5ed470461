// Scheduler and fork-join tests: correctness of parallel_invoke /
// parallel_for under nesting, worker-count changes, and load imbalance,
// and the granularity rule (which loops fork, counted by sched.forks).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/work_stealing_deque.hpp"
#include "test_workers.hpp"

namespace bdc {
namespace {

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  const size_t n = 1 << 20;
  std::vector<std::atomic<uint8_t>> hits(n);
  parallel_for(0, n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1u) << i;
}

TEST(Scheduler, ParallelForEmptyAndSingleton) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    count++;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(Scheduler, ParallelForRespectsGrain) {
  std::atomic<long> sum{0};
  parallel_for(
      0, 100000, [&](size_t i) { sum.fetch_add(static_cast<long>(i)); }, 17);
  EXPECT_EQ(sum.load(), 100000L * 99999 / 2);
}

TEST(Scheduler, ParallelInvokeRunsBoth) {
  std::atomic<int> a{0}, b{0};
  parallel_invoke([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(Scheduler, DeepNesting) {
  // A fork-join tree of depth ~16; validates helping joins don't deadlock.
  std::function<long(long, long)> sum_range = [&](long lo, long hi) -> long {
    if (hi - lo <= 4) {
      long s = 0;
      for (long i = lo; i < hi; ++i) s += i;
      return s;
    }
    long mid = lo + (hi - lo) / 2, left = 0, right = 0;
    parallel_invoke([&] { left = sum_range(lo, mid); },
                    [&] { right = sum_range(mid, hi); });
    return left + right;
  };
  EXPECT_EQ(sum_range(0, 100000), 100000L * 99999 / 2);
}

TEST(Scheduler, UnbalancedWork) {
  // One heavy iteration amid many light ones: stealing must pick it up.
  std::atomic<long> total{0};
  parallel_for(0, 1000, [&](size_t i) {
    long local = 0;
    size_t reps = (i == 0) ? 2000000 : 10;
    for (size_t j = 0; j < reps; ++j) local += static_cast<long>(j % 7);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_GT(total.load(), 0);
}

TEST(Scheduler, WorkerCountChange) {
  unsigned before = num_workers();
  set_num_workers(1);
  EXPECT_EQ(num_workers(), 1u);
  std::atomic<int> c{0};
  parallel_for(0, 1000, [&](size_t) { c++; });
  EXPECT_EQ(c.load(), 1000);
  set_num_workers(3);
  EXPECT_EQ(num_workers(), 3u);
  c = 0;
  parallel_for(0, 1000, [&](size_t) { c++; });
  EXPECT_EQ(c.load(), 1000);
  set_num_workers(before);
}

TEST(Deque, SequentialPushPopLifo) {
  internal::work_stealing_deque dq;
  internal::job* a = reinterpret_cast<internal::job*>(8);
  internal::job* b = reinterpret_cast<internal::job*>(16);
  dq.push(a);
  dq.push(b);
  EXPECT_EQ(dq.pop(), b);
  EXPECT_EQ(dq.pop(), a);
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(Deque, StealFifo) {
  internal::work_stealing_deque dq;
  internal::job* a = reinterpret_cast<internal::job*>(8);
  internal::job* b = reinterpret_cast<internal::job*>(16);
  dq.push(a);
  dq.push(b);
  EXPECT_EQ(dq.steal(), a);
  EXPECT_EQ(dq.pop(), b);
  EXPECT_EQ(dq.steal(), nullptr);
}

uint64_t forks_so_far() {
  return obs::metric_registry::global().get_counter("sched.forks").value();
}

TEST(Granularity, DefaultGrainRule) {
  using internal::default_grain;
  using internal::kMaxLeaf;
  using internal::kMinLeaf;
  using internal::kSequentialCutoff;
  EXPECT_EQ(default_grain(kSequentialCutoff, 2), kSequentialCutoff);
  EXPECT_EQ(default_grain(kSequentialCutoff + 1, 2), kMinLeaf);
  EXPECT_EQ(default_grain(size_t{1} << 20, 1), size_t{1} << 20);
  EXPECT_EQ(default_grain(size_t{1} << 20, 2), kMaxLeaf);
  // Mid-size loops give every worker kLeavesPerWorker leaves.
  EXPECT_EQ(default_grain(8192, 4), 8192 / (internal::kLeavesPerWorker * 4));
}

TEST(Granularity, WorkGrainFollowsTotalWork) {
  using internal::kMinLeaf;
  using internal::kSequentialCutoff;
  EXPECT_EQ(work_grain(0, 0), 1u);
  EXPECT_EQ(work_grain(40, kSequentialCutoff), 40u);  // inline
  EXPECT_EQ(work_grain(1000, 1000), kMinLeaf);        // one element each
  EXPECT_EQ(work_grain(10, 100000), 1u);              // heavy iterations
}

TEST(Granularity, SmallDefaultGrainLoopRunsOnCallingThread) {
  testing::worker_pool_guard pool(2);
  const size_t n = internal::kSequentialCutoff;
  const uint64_t before = forks_so_far();
  std::vector<std::thread::id> ran_on(n);
  parallel_for(0, n,
               [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(ran_on[i], std::this_thread::get_id()) << i;
  EXPECT_EQ(forks_so_far(), before);
}

TEST(Granularity, LargeRangeStillForks) {
  testing::worker_pool_guard pool(2);
  const size_t n = size_t{1} << 16;
  const uint64_t before = forks_so_far();
  std::atomic<long> sum{0};
  parallel_for(0, n, [&](size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
  // At least kLeavesPerWorker leaves per worker: leaves - 1 forks.
  EXPECT_GE(forks_so_far() - before, 2 * internal::kLeavesPerWorker - 1);
}

class ParallelForSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForSweep, SumMatchesClosedForm) {
  size_t n = GetParam();
  std::atomic<long> sum{0};
  parallel_for(0, n, [&](size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(),
            static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelForSweep,
                         ::testing::Values(0, 1, 2, 3, 7, 64, 127, 128, 129,
                                           511, 512, 513, 1000, 2047, 2048,
                                           2049, 4097, 100000));

}  // namespace
}  // namespace bdc
