// Unified telemetry: the library's one observability substrate.
//
// Three layers, lowest first:
//
//   * `metric_registry` — named counters, gauges, and log2-bucket
//     histograms. Hot-path writes are ONE cache-local relaxed-atomic
//     increment: every metric's storage is sharded into cache-line-sized
//     slots indexed by the scheduler worker id, so concurrent workers in
//     a parallel phase never contend (external threads hash onto a slot;
//     collisions stay correct, just shared). Reads aggregate the shards —
//     values are point-in-time sums, exact between batches, approximate
//     while writers are mid-flight, and always data-race-free (TSan-clean
//     by construction: every cross-thread access is an atomic).
//   * `phase_span` — a scoped wall-clock timer. On destruction it records
//     the duration into a registry histogram (`span.<name>.us`) and, when
//     tracing is enabled, appends a complete event to `trace_recorder`
//     for chrome://tracing timelines. Declared through BDC_PHASE_SPAN,
//     which caches the histogram lookup per call site.
//   * exporters (obs/exporters.hpp) — human text, JSON-lines, and Chrome
//     trace-event renderings of a `metrics_snapshot`.
//
// Relationship to the per-structure statistics structs
// (`bdc::statistics`, `router_statistics`, `node_pool::stats_snapshot`,
// `hdt_connectivity::statistics`): those remain the per-INSTANCE hot
// counters — they are single-writer plain integers, which is strictly
// cheaper than any shared registry, and tests rely on per-instance
// values. What this subsystem unifies is everything downstream of the
// increment: `obs::collect(...)` (obs/collectors.hpp) folds each struct
// into a `metrics_snapshot`, and the exporters are the ONLY formatting
// path — the bespoke printf report blocks that used to live in
// stream_runner are gone. Registry-native storage is for metrics that
// are genuinely cross-thread (span histograms, trace counters) or
// process-global.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/scheduler.hpp"

namespace bdc::obs {

/// Shard count for every sharded metric. Power of two; worker ids above
/// it wrap (fetch_add keeps wrapped slots correct, merely shared).
inline constexpr size_t kMetricShards = 16;

[[nodiscard]] inline size_t metric_shard_index() {
  return worker_id() & (kMetricShards - 1);
}

/// Monotonic counter. add() is one relaxed fetch_add on the calling
/// worker's shard; value() sums the shards (point-in-time, see header).
class counter {
 public:
  void add(uint64_t n = 1) {
    shards_[metric_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t value() const {
    uint64_t total = 0;
    for (const shard& s : shards_)
      total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  /// Zeroes every shard. Requires writer quiescence for an exact result.
  void reset() {
    for (shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<shard, kMetricShards> shards_;
};

/// Last-writer-wins signed level (limbo depth, retained bytes, ...).
/// Unsharded: gauges are set at observation points, not in hot loops.
class gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucket histogram. Bucket b counts recorded values v with
/// std::bit_width(v) == b: bucket 0 holds exactly v == 0, and bucket
/// b >= 1 holds the range [2^(b-1), 2^b - 1]. Sum and count ride along
/// for mean computation. Same sharding contract as counter.
class histogram {
 public:
  static constexpr size_t kBuckets = 64;  // bit_width of a uint64_t maxes at 64

  void record(uint64_t v) {
    shard& s = shards_[metric_shard_index()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] static size_t bucket_of(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v));
  }
  /// Inclusive upper bound of bucket b (0 for bucket 0).
  [[nodiscard]] static uint64_t bucket_upper(size_t b) {
    if (b == 0) return 0;
    if (b >= 64) return ~uint64_t{0};
    return (uint64_t{1} << b) - 1;
  }

  [[nodiscard]] uint64_t count() const { return sum_of(&shard::count); }
  [[nodiscard]] uint64_t sum() const { return sum_of(&shard::sum); }
  /// Aggregated per-bucket counts, trailing zero buckets trimmed.
  [[nodiscard]] std::vector<uint64_t> buckets() const {
    std::vector<uint64_t> out(kBuckets + 1, 0);
    for (const shard& s : shards_)
      for (size_t b = 0; b < out.size(); ++b)
        out[b] += s.buckets[b].load(std::memory_order_relaxed);
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  }
  void reset() {
    for (shard& s : shards_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) shard {
    std::array<std::atomic<uint64_t>, kBuckets + 1> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  template <typename M>
  [[nodiscard]] uint64_t sum_of(M m) const {
    uint64_t total = 0;
    for (const shard& s : shards_)
      total += (s.*m).load(std::memory_order_relaxed);
    return total;
  }
  std::array<shard, kMetricShards> shards_;
};

enum class metric_kind : uint8_t { counter, gauge, histogram };

[[nodiscard]] const char* to_string(metric_kind k);

/// One exported metric. For counters/gauges only `value` is meaningful;
/// histograms carry count/sum/buckets (value holds the count for sorting
/// convenience).
struct metric_row {
  std::string name;
  metric_kind kind = metric_kind::counter;
  int64_t value = 0;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;

  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// A value-typed bag of metric rows: what the exporters consume. Rows
/// come from `metric_registry::snapshot()` plus any number of
/// `obs::collect(...)` calls folding per-structure stats structs in.
struct metrics_snapshot {
  std::vector<metric_row> rows;

  void add_counter(std::string name, uint64_t v) {
    rows.push_back({std::move(name), metric_kind::counter,
                    static_cast<int64_t>(v), 0, 0, {}});
  }
  void add_gauge(std::string name, int64_t v) {
    rows.push_back({std::move(name), metric_kind::gauge, v, 0, 0, {}});
  }
  /// Stable-sorts rows by name (exporters emit in this order).
  void sort();
  /// First row with this exact name, or nullptr.
  [[nodiscard]] const metric_row* find(std::string_view name) const;
};

/// Named-metric owner. Registration (get_*) takes a mutex and returns a
/// reference that stays valid for the registry's lifetime — call sites
/// cache it (BDC_PHASE_SPAN does so in a function-local static). The
/// returned objects' hot methods are lock-free.
class metric_registry {
 public:
  metric_registry() = default;
  metric_registry(const metric_registry&) = delete;
  metric_registry& operator=(const metric_registry&) = delete;

  [[nodiscard]] counter& get_counter(std::string_view name);
  [[nodiscard]] gauge& get_gauge(std::string_view name);
  [[nodiscard]] histogram& get_histogram(std::string_view name);
  /// The histogram a span named `name` records into: "span.<name>.us".
  [[nodiscard]] histogram& span_histogram(std::string_view name);

  /// Aggregates every registered metric into rows. Point-in-time: shards
  /// are summed with relaxed loads, so concurrent writers yield an
  /// approximate (never torn) snapshot.
  [[nodiscard]] metrics_snapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered). Requires
  /// writer quiescence for the zeroes to be exact.
  void reset();

  /// The process-wide registry the instrumentation macros write to.
  [[nodiscard]] static metric_registry& global();

 private:
  mutable std::mutex mu_;
  // node-based maps: references handed out must survive future inserts.
  std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<histogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------------
// Trace recording (chrome://tracing timelines)
// ---------------------------------------------------------------------

/// One trace event. `name` must be a string with static storage duration
/// (the instrumentation macros pass literals).
struct trace_event {
  const char* name = nullptr;
  uint64_t ts_ns = 0;   // start, relative to enable()
  uint64_t dur_ns = 0;  // 0 for instant events
  uint32_t tid = 0;     // small per-thread id (see trace_thread_id)
  char ph = 'X';        // 'X' complete, 'i' instant
};

/// Small dense id for the calling thread (assigned on first use);
/// distinguishes reader threads that all report worker_id() == 0.
[[nodiscard]] uint32_t trace_thread_id();

/// Bounded in-memory event sink. Off by default; enable() arms it and
/// stamps the trace epoch. record() is safe from any thread (one relaxed
/// fetch_add claims a slot in the caller's shard; overflow increments a
/// drop counter instead of reallocating). drain() and disable() require
/// quiescence: every recording thread must have synchronized with the
/// caller (joined, or passed a batch barrier) first.
class trace_recorder {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 18;  // per shard

  void enable(size_t capacity_per_shard = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

  void record(const trace_event& ev);
  /// Convenience: instant event stamped now (no-op unless active).
  void instant(const char* name);

  /// Moves every recorded event out (sorted by ts) and clears the
  /// buffers; the recorder stays active. Quiescence required.
  [[nodiscard]] std::vector<trace_event> drain();
  [[nodiscard]] uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] static trace_recorder& global();

 private:
  struct shard {
    std::atomic<size_t> n{0};
    std::vector<trace_event> buf;
  };
  std::atomic<bool> active_{false};
  std::chrono::steady_clock::time_point epoch_{};
  std::array<shard, kMetricShards> shards_;
  std::atomic<uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------

/// Scoped wall-clock timer; see the header comment. Construct through
/// BDC_PHASE_SPAN (which caches the histogram lookup per call site).
class phase_span {
 public:
  phase_span(const char* name, histogram& hist)
      : name_(name), hist_(&hist),
        start_(std::chrono::steady_clock::now()) {}
  phase_span(const phase_span&) = delete;
  phase_span& operator=(const phase_span&) = delete;
  ~phase_span() {
    const auto end = std::chrono::steady_clock::now();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    hist_->record(ns / 1000);  // histogram is in microseconds
    trace_recorder& tr = trace_recorder::global();
    if (tr.active()) {
      trace_event ev;
      ev.name = name_;
      ev.ts_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                               tr.epoch())
              .count());
      ev.dur_ns = ns;
      ev.tid = trace_thread_id();
      ev.ph = 'X';
      tr.record(ev);
    }
  }

 private:
  const char* name_;
  histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Instant trace event (no-op when tracing is off): promotion decisions,
/// fallback triggers, and similar one-shot pipeline events.
inline void trace_instant(const char* name) {
  trace_recorder::global().instant(name);
}

}  // namespace bdc::obs

/// Declares a scoped phase span `var` named `name` (a string literal):
/// times the enclosing scope into the global registry histogram
/// "span.<name>.us" and the trace.
#define BDC_PHASE_SPAN(var, name)                                         \
  static ::bdc::obs::histogram& var##_bdc_span_hist =                     \
      ::bdc::obs::metric_registry::global().span_histogram(name);         \
  ::bdc::obs::phase_span var((name), var##_bdc_span_hist)
