// Scheduler runtime: worker registration, deque routing, and the helping
// join loop. Thread management lives in worker_pool.cpp.
#include "parallel/scheduler.hpp"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/random.hpp"

namespace bdc::internal {

namespace {
thread_local int tl_worker_index = -1;
}  // namespace

struct scheduler_runtime::impl {
  std::vector<work_stealing_deque> deques;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  std::atomic<bool> external_slot_taken{false};
  // Sleep machinery: workers park here when stealing keeps failing.
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  std::atomic<int> num_sleeping{0};
  // Fork and steal counts, sharded by worker like every registry metric.
  obs::counter& forks =
      obs::metric_registry::global().get_counter("sched.forks");
  obs::counter& steals =
      obs::metric_registry::global().get_counter("sched.steals");

  explicit impl(unsigned n) : deques(n) {}
};

struct worker_main_access {
  static void run(scheduler_runtime* rt, unsigned index) {
    rt->worker_loop(index);
  }
};

scheduler_runtime::scheduler_runtime(unsigned nw)
    : num_workers_(nw == 0 ? 1 : nw), impl_(new impl(num_workers_)) {
  // Slot 0 is reserved for the external (calling) thread; slots 1..P-1 are
  // pool threads.
  for (unsigned i = 1; i < num_workers_; ++i) {
    impl_->threads.emplace_back(
        [this, i] { worker_main_access::run(this, i); });
  }
}

scheduler_runtime::~scheduler_runtime() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->sleep_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

int scheduler_runtime::worker_index() { return tl_worker_index; }

bool scheduler_runtime::try_register_external() {
  bool expected = false;
  if (impl_->external_slot_taken.compare_exchange_strong(expected, true)) {
    tl_worker_index = 0;
    return true;
  }
  return false;
}

void scheduler_runtime::unregister_external() {
  assert(tl_worker_index == 0);
  tl_worker_index = -1;
  impl_->external_slot_taken.store(false, std::memory_order_release);
}

void scheduler_runtime::push(job* j) {
  assert(tl_worker_index >= 0);
  impl_->deques[static_cast<size_t>(tl_worker_index)].push(j);
  impl_->forks.add();
}

job* scheduler_runtime::pop() {
  assert(tl_worker_index >= 0);
  return impl_->deques[static_cast<size_t>(tl_worker_index)].pop();
}

void scheduler_runtime::notify_work() {
  if (impl_->num_sleeping.load(std::memory_order_relaxed) > 0) {
    impl_->sleep_cv.notify_one();
  }
}

job* scheduler_runtime::try_steal(uint64_t& rng_state) {
  rng_state = hash64(rng_state);
  unsigned victim = static_cast<unsigned>(rng_state % num_workers_);
  int self = tl_worker_index;
  if (static_cast<int>(victim) == self) {
    victim = (victim + 1) % num_workers_;
    if (static_cast<int>(victim) == self) return nullptr;  // P == 1
  }
  job* j = impl_->deques[victim].steal();
  if (j != nullptr) impl_->steals.add();
  return j;
}

void scheduler_runtime::wait_for(job* j) {
  uint64_t rng = hash64(static_cast<uint64_t>(tl_worker_index) + 0x9e37u);
  int failures = 0;
  while (!j->done.load(std::memory_order_acquire)) {
    job* other = pop();
    if (other == nullptr) other = try_steal(rng);
    if (other != nullptr) {
      other->run();
      failures = 0;
    } else if (++failures > 64) {
      std::this_thread::yield();
      failures = 0;
    }
  }
}

void scheduler_runtime::worker_loop(unsigned index) {
  tl_worker_index = static_cast<int>(index);
  uint64_t rng = hash64(index * 0x9e3779b9u + 1);
  int failures = 0;
  while (!impl_->stop.load(std::memory_order_acquire)) {
    job* j = try_steal(rng);
    if (j != nullptr) {
      j->run();
      failures = 0;
      continue;
    }
    if (++failures < 256) {
      // brief spin: cheap reaction to freshly pushed work
      continue;
    }
    if (failures < 512) {
      std::this_thread::yield();
      continue;
    }
    // Park with a timeout; notify_work() wakes us early.
    std::unique_lock<std::mutex> lock(impl_->sleep_mutex);
    impl_->num_sleeping.fetch_add(1, std::memory_order_relaxed);
    impl_->sleep_cv.wait_for(lock, std::chrono::milliseconds(1));
    impl_->num_sleeping.fetch_sub(1, std::memory_order_relaxed);
    failures = 0;
  }
  tl_worker_index = -1;
}

}  // namespace bdc::internal

namespace bdc {

unsigned num_workers() { return internal::scheduler_instance().num_workers(); }

unsigned worker_id() {
  int idx = internal::scheduler_runtime::worker_index();
  return idx < 0 ? 0u : static_cast<unsigned>(idx);
}

}  // namespace bdc
