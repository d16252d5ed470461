// Fork-join work-stealing scheduler: the library's realization of the
// MT-RAM / work-depth model from the paper (Appendix 7).
//
// The model is nested fork-join: `parallel_invoke(a, b)` forks b, runs a, and
// joins; `parallel_for` is built on top by recursive halving. A greedy
// work-stealing scheduler executes a W-work, D-depth computation in
// T_P <= W/P + O(D) expected time, which is how the paper's work/depth bounds
// translate to running time on P cores.
//
// Contract: task bodies must not throw (the scheduler does not propagate
// exceptions across steals), and a mutating batch operation on a shared
// structure must be issued from a single logical root task.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "parallel/work_stealing_deque.hpp"

namespace bdc {

namespace internal {

/// Type-erased task. Lives on the forking frame's stack until joined.
class job {
 public:
  virtual void run() = 0;

  /// Set by the executing thread after run() completes.
  std::atomic<bool> done{false};

 protected:
  ~job() = default;
};

template <typename F>
class closure_job final : public job {
 public:
  explicit closure_job(F& f) : f_(f) {}
  void run() override {
    f_();
    done.store(true, std::memory_order_release);
  }

 private:
  F& f_;
};

/// Worker-pool runtime. One instance per process (see scheduler_instance()).
class scheduler_runtime {
 public:
  explicit scheduler_runtime(unsigned num_workers);
  ~scheduler_runtime();

  scheduler_runtime(const scheduler_runtime&) = delete;
  scheduler_runtime& operator=(const scheduler_runtime&) = delete;

  [[nodiscard]] unsigned num_workers() const { return num_workers_; }

  /// Push a job onto the calling worker's deque (one fork; counted in
  /// `sched.forks`). Caller must be registered.
  void push(job* j);
  /// Pop from the calling worker's deque.
  job* pop();
  /// Attempt one steal from a random victim (successes are counted in
  /// `sched.steals`).
  job* try_steal(uint64_t& rng_state);
  /// Execute other tasks until `j->done` becomes true.
  void wait_for(job* j);
  /// Wake sleeping workers (called after pushes).
  void notify_work();

  /// Registers the calling external thread into deque slot 0, if free.
  /// Returns true on success; on failure the caller must run sequentially.
  bool try_register_external();
  void unregister_external();

  /// Thread-local worker index (-1 if unregistered).
  static int worker_index();

 private:
  friend struct worker_main_access;
  void worker_loop(unsigned index);

  unsigned num_workers_;
  struct impl;
  impl* impl_;
};

scheduler_runtime& scheduler_instance();

}  // namespace internal

/// Number of parallel workers (threads) the runtime uses. Controlled by the
/// environment variable BDC_NUM_WORKERS; defaults to hardware concurrency.
unsigned num_workers();

/// Rebuilds the worker pool with `p` workers. Must only be called while no
/// parallel work is in flight (e.g., between benchmark phases).
void set_num_workers(unsigned p);

/// Index of the calling worker in [0, num_workers()), or 0 for an external
/// thread that is temporarily driving the pool.
unsigned worker_id();

/// Runs `a` and `b`, potentially in parallel, and waits for both.
template <typename FA, typename FB>
void parallel_invoke(FA&& a, FB&& b) {
  using internal::scheduler_instance;
  auto& sched = scheduler_instance();
  if (sched.num_workers() <= 1) {
    a();
    b();
    return;
  }
  int idx = internal::scheduler_runtime::worker_index();
  bool registered_here = false;
  if (idx < 0) {
    if (!sched.try_register_external()) {
      a();  // another external thread owns the pool: degrade gracefully
      b();
      return;
    }
    registered_here = true;
  }
  {
    internal::closure_job<FB> jb(b);
    sched.push(&jb);
    sched.notify_work();
    a();
    internal::job* popped = sched.pop();
    if (popped == &jb) {
      jb.run();
    } else {
      // jb was stolen (and `popped`, if any, is an older sibling fork that
      // is also safe to run here).
      if (popped != nullptr) popped->run();
      sched.wait_for(&jb);
    }
  }
  if (registered_here) sched.unregister_external();
}

namespace internal {

// Granularity. A fork that is not stolen costs a deque push and pop; one
// that is stolen costs a wake-up, a cache-line transfer and a join that
// waits on another core: about a microsecond, against a few nanoseconds
// for a cheap loop body. So a default-grain loop forks only when it
// carries enough work to pay for a steal:
//   * at most kSequentialCutoff iterations run inline, with no fork;
//   * longer loops split into leaves of n / (kLeavesPerWorker * p)
//     iterations, clamped to [kMinLeaf, kMaxLeaf], so a large batch still
//     gives every worker at least kLeavesPerWorker leaves to balance.
inline constexpr size_t kSequentialCutoff = 512;
inline constexpr size_t kMinLeaf = 128;
inline constexpr size_t kMaxLeaf = 2048;
inline constexpr size_t kLeavesPerWorker = 8;

/// The leaf size a default-grain loop of n iterations uses on p workers
/// (n itself when the loop runs inline).
inline size_t default_grain(size_t n, size_t p) {
  if (p <= 1 || n <= kSequentialCutoff) return n;
  return std::clamp<size_t>(n / (kLeavesPerWorker * p), kMinLeaf, kMaxLeaf);
}

template <typename F>
void parallel_for_rec(size_t lo, size_t hi, size_t grain, const F& f) {
  if (hi - lo <= grain) {
    for (size_t i = lo; i < hi; ++i) f(i);
  } else {
    size_t mid = lo + (hi - lo) / 2;
    parallel_invoke([&] { parallel_for_rec(lo, mid, grain, f); },
                    [&] { parallel_for_rec(mid, hi, grain, f); });
  }
}

}  // namespace internal

/// Grain for loops whose every iteration is a pointer walk of several
/// cache misses (a tour splice, a fetch walk over a tour's blocks): about
/// a microsecond each, so a leaf of this many pays for its fork.
inline constexpr size_t kWalkGrain = 16;

/// Grain for a loop of n iterations of uneven size that together touch
/// `work` elements (a loop over groups or parts): inline up to
/// kSequentialCutoff elements, otherwise leaves of about kMinLeaf elements
/// on average, down to one iteration per leaf.
inline size_t work_grain(size_t n, size_t work) {
  if (work <= internal::kSequentialCutoff) return std::max<size_t>(n, 1);
  return std::max<size_t>(1, n * internal::kMinLeaf / work);
}

/// Data-parallel loop over [lo, hi). `grain` is the largest chunk executed
/// sequentially. The default (0) suits a body of a few to a few hundred
/// nanoseconds: see internal::default_grain. A body that costs about a
/// microsecond or more (a pointer walk per iteration) passes kWalkGrain; a
/// loop over uneven groups passes work_grain; a body that is itself a bulk
/// operation (a block of at least internal::kMinBlock elements, a sort)
/// may pass 1.
template <typename F>
void parallel_for(size_t lo, size_t hi, const F& f, size_t grain = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  size_t p = num_workers();
  if (grain == 0) grain = internal::default_grain(n, p);
  if (n <= grain || p <= 1) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  internal::parallel_for_rec(lo, hi, grain, f);
}

}  // namespace bdc
