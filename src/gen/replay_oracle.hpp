// The replay oracle, which holds every structure to the paper's contract
// (each answer reflects the batch boundary it claims):
//   * stream_oracle — a sequential edge set plus a union-find applying the
//     public API's input rules (canonicalize; drop self-loops and edges
//     with an endpoint >= n; set semantics). It shares no code with the
//     library's parallel structures, so a fault there cannot hide in it.
//   * served_reads — reader threads that hammer snapshot_query() while the
//     writer applies update batches, each keeping a bounded uniform sample
//     of its reads and counting stale ones.
//   * check_reads — sorts the sampled reads by the version they claim and
//     advances one stream_oracle through the update log once: O(n + m)
//     memory however many versions the reads span.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "gen/update_stream.hpp"
#include "spanning/union_find.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {

/// Exact connectivity of the edge set an update stream builds. version()
/// counts update calls, no-op batches included, as the structures do.
class stream_oracle {
 public:
  explicit stream_oracle(vertex_id n) : n_(n), forest_(n) {}

  void insert(std::span<const edge> es) {
    for (const edge& raw : es) {
      const edge c = raw.canonical();
      if (c.is_self_loop() || c.v >= n_) continue;
      if (edges_.insert(edge_key(c)).second && !forest_stale_)
        forest_.unite(c.u, c.v);
    }
    bump();
  }

  void erase(std::span<const edge> es) {  // only valid keys are stored
    for (const edge& raw : es)
      if (edges_.erase(edge_key(raw.canonical())) != 0) forest_stale_ = true;
    bump();
  }

  /// Applies one stream batch; a query batch is not an update.
  void apply(const update_batch& b) {
    if (b.op == update_batch::kind::insert) insert(b.edges);
    if (b.op == update_batch::kind::erase) erase(b.edges);
  }

  /// False when either id is out of range.
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) {
    return u < n_ && v < n_ && forest().find(u) == forest().find(v);
  }

  /// Min-vertex component labels, cached until the next update.
  const std::vector<vertex_id>& labels() {
    if (labels_stale_) {
      // A root's slot takes its component's smallest id, then every vertex
      // copies its root's slot (a root copies its own: nothing is lost).
      union_find& uf = forest();
      labels_.assign(n_, kNoVertex);
      for (vertex_id v = 0; v < n_; ++v) {
        vertex_id& min = labels_[uf.find(v)];
        if (min == kNoVertex) min = v;
      }
      for (vertex_id v = 0; v < n_; ++v) labels_[v] = labels_[uf.find(v)];
      labels_stale_ = false;
    }
    return labels_;
  }

  /// The canonical edge keys present (edge_from_key decodes them).
  [[nodiscard]] const std::unordered_set<uint64_t>& edges() const {
    return edges_;
  }
  [[nodiscard]] size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] uint64_t version() const { return version_; }

 private:
  void bump() {
    ++version_;
    labels_stale_ = true;
  }

  /// Inserts unite in place; an effective erase rebuilds on next use.
  union_find& forest() {
    if (forest_stale_) {
      forest_ = union_find(n_);
      for (uint64_t key : edges_)
        forest_.unite(edge_from_key(key).u, edge_from_key(key).v);
      forest_stale_ = false;
    }
    return forest_;
  }

  vertex_id n_;
  std::unordered_set<uint64_t> edges_;
  union_find forest_;
  bool forest_stale_ = false;
  std::vector<vertex_id> labels_;
  bool labels_stale_ = true;
  uint64_t version_ = 0;
};

/// One served read.
struct served_record {
  vertex_id u = 0, v = 0;
  uint64_t version = 0;  // the committed batch count the answer claims
  uint64_t size = 0;     // pinned reads: the frozen component_size(u)
  bool pinned = false;   // answered by the pinned surface
  bool ans = false;
};

/// A uniform sample of at most kCapacity of the records offered to it
/// (reservoir sampling, Vitter's Algorithm R), so the evidence spreads
/// over a whole replay instead of its first reads. seen() counts offers.
class read_sample {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  void offer(const served_record& r, random_stream& rng) {
    if (kept_.size() < kCapacity) {
      kept_.push_back(r);
    } else if (const uint64_t slot = rng.next(seen_ + 1); slot < kCapacity) {
      kept_[slot] = r;
    }
    ++seen_;
  }

  [[nodiscard]] const std::vector<served_record>& kept() const {
    return kept_;
  }
  [[nodiscard]] uint64_t seen() const { return seen_; }

 private:
  std::vector<served_record> kept_;
  uint64_t seen_ = 0;
};

/// What a joined reader pool hands the checker.
struct served_sample {
  std::vector<served_record> records;
  uint64_t reads = 0;      // every read answered, sampled or not
  uint64_t stale = 0;      // fresh reads older than the committed version
  uint64_t committed = 0;  // committed_version() after the last batch
};

/// Reader threads over one serving structure, started by the constructor.
/// Each reader takes a view and reuses it for kReadsPerView reads of ids
/// in [0, n); every 8th read asks the pinned surface (connected_pinned and
/// component_size), the rest the freshest-committed one. A fresh read
/// that claims a version below the committed_version() read just before
/// the call is stale.
class served_reads {
 public:
  static constexpr int kReadsPerView = 8;

  template <typename Structure>
  served_reads(const Structure& s, size_t readers, uint64_t seed)
      : committed_([&s] { return s.committed_version(); }),
        samples_(readers) {
    threads_.reserve(readers);
    for (size_t t = 0; t < readers; ++t)
      threads_.emplace_back([this, &s, t, seed] {
        serve(s, samples_[t], random_stream(hash_combine(seed, t)));
      });
  }
  ~served_reads() { stop(); }
  served_reads(const served_reads&) = delete;
  served_reads& operator=(const served_reads&) = delete;

  /// Batches done: keeps serving until every reader has recorded a read
  /// (so the check cannot starve on a loaded machine), then joins them
  /// and merges their samples.
  served_sample finish() {
    while (serving_.load(std::memory_order_acquire) < threads_.size())
      std::this_thread::yield();
    stop();
    served_sample out;
    for (const read_sample& s : samples_) {
      out.records.insert(out.records.end(), s.kept().begin(), s.kept().end());
      out.reads += s.seen();
    }
    out.stale = stale_.load(std::memory_order_relaxed);
    out.committed = committed_();
    return out;
  }

 private:
  template <typename Structure>
  void serve(const Structure& s, read_sample& sample, random_stream rng) {
    const vertex_id n = s.num_vertices();
    uint64_t count = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      auto view = s.snapshot_query();
      for (int i = 0; i < kReadsPerView; ++i) {
        served_record r;
        r.u = static_cast<vertex_id>(rng.next(n));
        r.v = static_cast<vertex_id>(rng.next(n));
        if ((count++ & 7) == 0) {
          r.pinned = true;
          r.version = view.version();
          r.ans = view.connected_pinned(r.u, r.v);
          r.size = view.component_size(r.u);
        } else {
          const uint64_t floor = s.committed_version();
          r.ans = view.connected(r.u, r.v, &r.version);
          if (r.version < floor) stale_.fetch_add(1, std::memory_order_relaxed);
        }
        sample.offer(r, rng);
      }
      if (count == kReadsPerView)
        serving_.fetch_add(1, std::memory_order_release);
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (auto& th : threads_)
      if (th.joinable()) th.join();
  }

  std::function<uint64_t()> committed_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> serving_{0};  // readers that have recorded a read
  std::atomic<uint64_t> stale_{0};
  std::vector<read_sample> samples_;
  std::vector<std::thread> threads_;
};

/// check_reads' verdict on a served sample.
struct read_check {
  uint64_t reads = 0;  // every read the pool answered
  size_t checked = 0;
  size_t mismatches = 0;
  uint64_t stale = 0;
  uint64_t first_version = 0, last_version = 0;  // of the checked reads
  std::vector<std::string> messages;             // the first few failures

  /// Something was checked, every read matched and none was stale.
  [[nodiscard]] bool ok() const {
    return checked > 0 && mismatches == 0 && stale == 0;
  }
};

/// Checks every sampled read against the oracle of the version it claims.
/// `log` is the applied stream: version k is the graph after its first k
/// update batches (query batches are skipped).
inline read_check check_reads(served_sample sample,
                              std::span<const update_batch> log,
                              vertex_id n) {
  read_check out;
  out.reads = sample.reads;
  auto fail = [&](std::string why) {
    if (out.mismatches++ < 5) out.messages.push_back(std::move(why));
  };
  out.stale = sample.stale;
  if (sample.stale != 0)
    out.messages.push_back(std::to_string(sample.stale) + " stale reads");
  const auto updates = static_cast<uint64_t>(
      std::count_if(log.begin(), log.end(), [](const update_batch& b) {
        return b.op != update_batch::kind::query;
      }));
  if (sample.committed != updates)
    fail("committed version " + std::to_string(sample.committed) + " but " +
         std::to_string(updates) + " update batches in the log");

  auto& recs = sample.records;
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    return a.version < b.version;
  });
  stream_oracle oracle(n);
  size_t next = 0;  // the next log batch to apply
  std::vector<vertex_id> sizes;  // component size by label at `sized_at`
  uint64_t sized_at = ~uint64_t{0};
  for (const served_record& r : recs) {
    while (oracle.version() < r.version && next < log.size())
      oracle.apply(log[next++]);
    auto read = [&r] {
      return "(" + std::to_string(r.u) + "," + std::to_string(r.v) +
             ") at version " + std::to_string(r.version) +
             (r.pinned ? " (pinned)" : " (fresh)");
    };
    if (oracle.version() != r.version) {
      fail(read() + ": no such version");
      continue;
    }
    if (out.checked++ == 0) out.first_version = r.version;
    out.last_version = r.version;
    const std::vector<vertex_id>& labels = oracle.labels();
    const bool want = r.u < n && r.v < n && labels[r.u] == labels[r.v];
    if (r.ans != want)
      fail(read() + ": got " + std::to_string(r.ans) + ", oracle " +
           std::to_string(want));
    if (!r.pinned) continue;
    if (sized_at != r.version) {
      sizes.assign(n, 0);
      for (vertex_id v = 0; v < n; ++v) ++sizes[labels[v]];
      sized_at = r.version;
    }
    const uint64_t want_size = r.u < n ? sizes[labels[r.u]] : 0;
    if (r.size != want_size)
      fail(read() + ": component_size " + std::to_string(r.size) +
           ", oracle " + std::to_string(want_size));
  }
  if (out.checked == 0) out.messages.push_back("no served read was recorded");
  return out;
}

}  // namespace bdc
