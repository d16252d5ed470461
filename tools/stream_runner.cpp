// stream_runner — operational CLI for the library: generate batched
// update-stream files and replay them against any of the implemented
// structures, reporting throughput and correctness spot-checks. Useful for
// profiling real workloads without writing C++.
//
// Usage:
//   stream_runner gen [--stream=deletion|mixed|window|hub]
//                     <erdos|rmat|grid> <n> <m> <batch> <seed> <out>
//   stream_runner run [--engine=auto|dynamic|dynamic-simple|dynamic-scanall|
//                      hdt|static|incremental]
//                     [--workers=N] [--serve-queries=T]
//                     [--metrics=FILE] [--trace=FILE]
//                     [--assert-gauge-max=NAME:MAX]
//                     [--check] <stream-file>
//   stream_runner            (no args: self-demo on a generated stream;
//                             flags apply)
//
// --stream picks the generated workload: deletion (insert everything,
// then delete in batches, with query batches between), mixed (the
// phase-skewed trace engine_router targets), window (a sliding window of
// m/2 edges) or hub (bursts of hub-edge deletions and re-insertions).
// --engine picks the structure (default dynamic). `auto` is the
// workload-adaptive engine_router: union-find during insert-only epochs,
// one-shot bulk-load promotion to the HDT structure at the first
// effective deletion, queries answered by whichever engine is active;
// its routing statistics (phase switches, promotion cost) join the
// report. Every engine builds from options{} (blocked Euler tours; the
// report labels read "dynamic/blocked", "auto/blocked"). --workers
// rebuilds the scheduler pool before the replay (equivalent to
// BDC_NUM_WORKERS, but scoped to this run).
// --check runs the stream oracle (gen/replay_oracle.hpp) in lockstep and
// checks every phased query answer and, after each erase batch,
// connected(u, v) of every deleted edge (streams without query batches
// are checked too); for the insert-only incremental engine it skips
// deletions, holding the engine to its own model.
// --serve-queries=T (dynamic engines only) turns the snapshot read service
// on and runs T reader threads (served_reads) during the replay; a
// uniform sample of their reads, spread over the whole replay, is checked
// against the oracle of the version each claims (check_reads). The two
// compose. A mismatch or a stale read fails the run.
// After a replay the structure's cumulative counters, the node-pool
// report, and the phase-span timing histograms are rendered through the
// telemetry text exporter (src/obs/) — one formatting path for every
// engine. --metrics=FILE additionally writes the same snapshot as
// JSON-lines (one object per metric, labeled with the run
// configuration; see obs/exporters.hpp for the schema), and
// --trace=FILE writes a Chrome trace-event timeline of the per-batch
// phase spans, viewable in chrome://tracing or ui.perfetto.dev.
// --assert-gauge-max=NAME:MAX fails the run (exit 1) if gauge NAME
// exceeds MAX in any reported snapshot (e.g. levels.bytes, the level
// hierarchy's retained memory). A run ends with "verdict: PASS (...)"
// only when every check passed; a failed run prints no verdict.
//
// Vertex ids in a stream file need not be < the header's n: every
// structure validates its inputs at the public API (out-of-range updates
// are dropped, out-of-range queries answer false). Each id must still be
// an unsigned decimal of at most 2^32 - 1, and each batch line must hold
// an even number of them, and the header's n may not exceed 2^31 (the
// most the Euler-tour tags hold); any other line fails the run with a
// "file:line:" error (with ":col:" of the offending token for a bad id or
// an unknown tag) instead of being truncated or wrapped.
//
// Stream file format (text): first line "n <N>", then one line per batch:
//   I <u1> <v1> <u2> <v2> ...     insertion batch
//   D <u1> <v1> ...               deletion batch
//   Q <u1> <v1> ...               connectivity-query batch
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "baselines/incremental_connectivity.hpp"
#include "baselines/static_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "ett/tour_entry.hpp"
#include "gen/graph_gen.hpp"
#include "gen/replay_oracle.hpp"
#include "gen/update_stream.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "obs/collectors.hpp"
#include "obs/exporters.hpp"
#include "parallel/scheduler.hpp"
#include "util/timer.hpp"

using namespace bdc;

namespace {

/// The --engine values.
constexpr std::string_view kEngines[] = {
    "auto", "dynamic", "dynamic-simple", "dynamic-scanall",
    "hdt",  "static",  "incremental"};

void write_stream(const std::string& path, vertex_id n,
                  const update_stream& stream) {
  std::ofstream out(path);
  out << "n " << n << "\n";
  for (const auto& b : stream) {
    out << (b.op == update_batch::kind::insert  ? "I"
            : b.op == update_batch::kind::erase ? "D"
                                                : "Q");
    for (const edge& e : b.edges) out << ' ' << e.u << ' ' << e.v;
    for (auto& [u, v] : b.queries) out << ' ' << u << ' ' << v;
    out << "\n";
  }
}

/// An unsigned decimal flag value in [lo, hi].
std::optional<unsigned> parse_count(const char* value, unsigned long lo,
                                    unsigned long hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || v < lo || v > hi)
    return std::nullopt;
  return static_cast<unsigned>(v);
}

/// One unsigned decimal vertex id: no sign, no trailing characters, and
/// at most 2^32 - 1. Ids past the header's n still parse; every structure
/// range-checks them at its own API.
std::optional<vertex_id> parse_id(std::string_view tok) {
  vertex_id id = 0;
  const char* last = tok.data() + tok.size();
  auto [end, ec] = std::from_chars(tok.data(), last, id);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return id;
}

/// Parses a text stream file. Returns "" on success, else a located
/// "path:line: reason" error: a signed, garbage or out-of-range token, an
/// odd id count or an unknown tag rejects the whole file rather than
/// ending a batch early. A bad id or tag is located as "path:line:col:",
/// with the 1-based column of the token.
std::string read_stream(const std::string& path, vertex_id& n,
                        update_stream& stream) {
  std::ifstream in(path);
  if (!in) return "cannot read stream file '" + path + "'";
  std::string line;
  size_t line_no = 0;
  bool have_header = false;
  auto located = [&](const std::string& why, size_t col = 0) {
    std::string at = path + ":" + std::to_string(line_no) + ":";
    if (col != 0) at += std::to_string(col) + ":";
    return at + " " + why;
  };
  // Whitespace-separated tokens of one line, each with its 1-based column.
  std::vector<std::pair<std::string_view, size_t>> toks;
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (std::getline(in, line)) {
    ++line_no;
    toks.clear();
    for (size_t i = 0; i < line.size();) {
      if (is_space(line[i])) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < line.size() && !is_space(line[j])) ++j;
      toks.emplace_back(std::string_view(line).substr(i, j - i), i + 1);
      i = j;
    }
    if (toks.empty()) continue;  // blank line
    const auto [tag, tag_col] = toks[0];
    std::vector<vertex_id> ids;
    for (size_t t = 1; t < toks.size(); ++t) {
      auto id = parse_id(toks[t].first);
      if (!id) {
        return located("'" + std::string(toks[t].first) +
                           "' is not a vertex id (unsigned, at most "
                           "4294967295)",
                       toks[t].second);
      }
      ids.push_back(*id);
    }
    if (!have_header) {
      if (tag != "n" || ids.size() != 1)
        return located("expected header 'n <vertex count>'");
      if (uint64_t{ids[0]} > uint64_t{kMaxTourVertex} + 1) {
        return located("vertex count " + std::to_string(ids[0]) +
                       " exceeds " +
                       std::to_string(uint64_t{kMaxTourVertex} + 1) +
                       ", the most the Euler-tour tags can hold");
      }
      n = ids[0];
      have_header = true;
      continue;
    }
    update_batch b;
    if (tag == "I") {
      b.op = update_batch::kind::insert;
    } else if (tag == "D") {
      b.op = update_batch::kind::erase;
    } else if (tag == "Q") {
      b.op = update_batch::kind::query;
    } else {
      return located("unknown batch tag '" + std::string(tag) +
                         "' (expected I, D or Q)",
                     tag_col);
    }
    if (ids.size() % 2 != 0)
      return located("odd number of vertex ids (" +
                     std::to_string(ids.size()) + ")");
    for (size_t i = 0; i < ids.size(); i += 2) {
      if (b.op == update_batch::kind::query)
        b.queries.push_back({ids[i], ids[i + 1]});
      else
        b.edges.push_back({ids[i], ids[i + 1]});
    }
    stream.push_back(std::move(b));
  }
  if (!have_header) return path + ": missing header 'n <vertex count>'";
  return {};
}

struct replay_report {
  double insert_sec = 0, delete_sec = 0, query_sec = 0;
  size_t inserted = 0, deleted = 0, queried = 0, connected_answers = 0;
  size_t checked = 0, mismatches = 0;  // phased answers, with --check
  size_t deleted_checked = 0;          // deleted edges, with --check
};

/// The one replay loop. With an oracle (--check), every phased query
/// answer and, after each erase batch, connected(u, v) of every deleted
/// edge are differential-checked against it, outside the timers. The
/// single-pair connected() records no span, so the deleted-edge checks
/// leave the batch.connected telemetry to the stream's own queries.
template <typename Structure>
replay_report replay(Structure& s, const update_stream& stream,
                     stream_oracle* oracle) {
  replay_report r;
  timer t;
  auto check = [&](vertex_id u, vertex_id v, bool got, size_t& count) {
    const bool want = oracle->connected(u, v);
    count++;
    if (want != got && r.mismatches++ < 5) {
      std::fprintf(stderr, "check MISMATCH: (%u,%u): got %d, oracle %d\n",
                   u, v, static_cast<int>(got), static_cast<int>(want));
    }
  };
  for (const auto& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        t.reset();
        s.batch_insert(b.edges);
        r.insert_sec += t.elapsed();
        r.inserted += b.edges.size();
        if (oracle) oracle->insert(b.edges);
        break;
      case update_batch::kind::erase:
        r.deleted += b.edges.size();
        if constexpr (requires { s.batch_delete(b.edges); }) {
          t.reset();
          s.batch_delete(b.edges);
          r.delete_sec += t.elapsed();
          if (!oracle) break;
          oracle->erase(b.edges);
          for (const edge& e : b.edges)
            check(e.u, e.v, s.connected(e.u, e.v), r.deleted_checked);
        } else {
          // The insert-only incremental engine; its oracle skips the
          // deletions too, holding it to its own restricted model.
          std::fprintf(stderr,
                       "warning: incremental structure ignores deletions\n");
        }
        break;
      case update_batch::kind::query: {
        t.reset();
        auto ans = s.batch_connected(b.queries);
        r.query_sec += t.elapsed();
        r.queried += b.queries.size();
        for (bool a : ans) r.connected_answers += a;
        if (!oracle) break;
        for (size_t i = 0; i < b.queries.size(); ++i)
          check(b.queries[i].first, b.queries[i].second, ans[i], r.checked);
        break;
      }
    }
  }
  return r;
}

void print_report(const std::string& name, const replay_report& r) {
  auto rate = [](size_t items, double sec) {
    return sec > 0 ? static_cast<double>(items) / sec / 1e3 : 0.0;
  };
  std::printf("%-16s ins %8zu in %7.3fs (%8.1f K/s) | del %8zu in %7.3fs "
              "(%8.1f K/s) | qry %8zu in %7.3fs (%8.1f K/s) | conn %zu\n",
              name.c_str(), r.inserted, r.insert_sec,
              rate(r.inserted, r.insert_sec), r.deleted, r.delete_sec,
              rate(r.deleted, r.delete_sec), r.queried, r.query_sec,
              rate(r.queried, r.query_sec), r.connected_answers);
}

// --metrics / --trace destinations (empty = disabled), set in main.
std::string g_metrics_path;
std::string g_trace_path;

// --assert-gauge-max=NAME:MAX budget assertions, checked against every
// reported snapshot (CI smoke tests pin e.g. levels.bytes this way).
std::vector<std::pair<std::string, int64_t>> g_gauge_max;

/// What the runs of this process checked, for the verdict line.
struct verdict {
  size_t phased_checked = 0;  // --check answers
  size_t deleted_checked = 0;  // --check deleted edges
  size_t served_checked = 0;  // sampled served reads
  size_t budgets_held = 0;    // --assert-gauge-max evaluations
};
verdict g_verdict;

/// Replay wall times join the snapshot so the span breakdown can be
/// checked against them (tools/check_telemetry.py asserts the batch
/// spans sum to within 10% of these).
void collect_replay(obs::metrics_snapshot& snap, const replay_report& r) {
  auto us = [](double sec) { return static_cast<int64_t>(sec * 1e6); };
  snap.add_gauge("replay.insert_us", us(r.insert_sec));
  snap.add_gauge("replay.delete_us", us(r.delete_sec));
  snap.add_gauge("replay.query_us", us(r.query_sec));
  snap.add_gauge("replay.total_us",
                 us(r.insert_sec + r.delete_sec + r.query_sec));
}

/// The single reporting sink: merges the global registry (span
/// histograms, retention gauges) into the per-structure rows, prints the
/// text report, holds it to the gauge budgets (returns 1 if one is
/// missing or exceeded), and appends the run to --metrics as JSON-lines.
int report_metrics(const std::string& label, obs::metrics_snapshot snap) {
  int rc = 0;
  obs::metrics_snapshot reg = obs::metric_registry::global().snapshot();
  snap.rows.insert(snap.rows.end(),
                   std::make_move_iterator(reg.rows.begin()),
                   std::make_move_iterator(reg.rows.end()));
  snap.sort();
  obs::export_text(stdout, snap);
  for (const auto& [gauge_name, limit] : g_gauge_max) {
    const obs::metric_row* row = snap.find(gauge_name);
    if (row == nullptr) {
      std::fprintf(stderr,
                   "--assert-gauge-max: gauge '%s' not reported by %s\n",
                   gauge_name.c_str(), label.c_str());
      rc = 1;
    } else if (row->value > limit) {
      std::fprintf(stderr,
                   "--assert-gauge-max: %s = %" PRId64
                   " exceeds budget %" PRId64 " in %s\n",
                   gauge_name.c_str(), row->value, limit, label.c_str());
      rc = 1;
    } else {
      ++g_verdict.budgets_held;
    }
  }
  if (!g_metrics_path.empty()) {
    std::ofstream out(g_metrics_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n",
                   g_metrics_path.c_str());
    } else {
      obs::export_jsonl(out, snap, label);
    }
  }
  return rc;
}

/// One run on any engine: the replay (lockstep-checked with --check) with
/// the reader pool serving (--serve-queries), the served-read check and
/// the report; `collect` adds the engine's own metrics.
template <typename Structure, typename Collect>
int run_engine(const std::string& label, Structure& s, vertex_id n,
               const update_stream& stream, unsigned serve_threads,
               bool check, Collect collect) {
  // Per-run registry baseline: the self-demo replays several engines in
  // one process, and each report should cover only its own replay
  // (construction-time publishes excluded too).
  obs::metric_registry::global().reset();
  std::optional<served_reads> readers;
  if constexpr (std::is_same_v<Structure, batch_dynamic_connectivity>) {
    if (serve_threads > 0) readers.emplace(s, serve_threads, 0x5e57e);
  } else if (serve_threads > 0) {
    std::fprintf(stderr,
                 "warning: --serve-queries applies only to the dynamic "
                 "structures; ignoring\n");
  }
  replay_report rep;
  {
    std::optional<stream_oracle> oracle;
    if (check) oracle.emplace(n);
    rep = replay(s, stream, oracle ? &*oracle : nullptr);
  }
  std::optional<read_check> served;
  if (readers) served = check_reads(readers->finish(), stream, n);

  print_report(label, rep);
  int rc = 0;
  if (check) {
    std::printf("  check: %zu answers and %zu deleted edges "
                "differential-checked, %zu mismatches%s\n",
                rep.checked, rep.deleted_checked, rep.mismatches,
                rep.mismatches == 0 ? " (OK)" : "");
    g_verdict.phased_checked += rep.checked;
    g_verdict.deleted_checked += rep.deleted_checked;
    if (rep.mismatches != 0) {
      std::fprintf(stderr, "oracle differential check FAILED\n");
      rc = 1;
    }
  }
  if (served) {
    std::printf("  serve: %u reader threads answered %" PRIu64
                " reads during the replay; %zu differential-checked "
                "(versions %" PRIu64 "..%" PRIu64 "), %zu mismatches, "
                "%" PRIu64 " stale%s\n",
                serve_threads, served->reads, served->checked,
                served->first_version, served->last_version,
                served->mismatches, served->stale,
                served->ok() ? " (OK)" : "");
    g_verdict.served_checked += served->checked;
    for (const std::string& m : served->messages)
      std::fprintf(stderr, "serve: %s\n", m.c_str());
    if (!served->ok()) {
      std::fprintf(stderr, "concurrent differential check FAILED\n");
      rc = 1;
    }
  }
  obs::metrics_snapshot snap;
  collect_replay(snap, rep);
  collect(snap);
  return std::max(rc, report_metrics(label, std::move(snap)));
}

int run_structure(const std::string& engine, vertex_id n,
                  const update_stream& stream, unsigned serve_threads,
                  bool check) {
  auto run = [&](const std::string& label, auto& s, auto collect) {
    return run_engine(label, s, n, stream, serve_threads, check, collect);
  };
  if (engine.rfind("dynamic", 0) == 0) {
    options o;
    o.search = engine == "dynamic-simple"    ? level_search_kind::simple
               : engine == "dynamic-scanall" ? level_search_kind::scan_all
                                             : level_search_kind::interleaved;
    o.concurrent_reads = serve_threads > 0;
    batch_dynamic_connectivity s(n, o);
    return run(engine + "/" + config_label(o), s,
               [&](obs::metrics_snapshot& snap) {
                 obs::collect(snap, s.stats());
                 // The historical pool report ended with a high-watermark
                 // trim; keep the side effect and report what it released.
                 obs::collect(snap, s.pool_stats());
                 snap.add_gauge("pool.trim_released_bytes",
                                static_cast<int64_t>(s.trim_pools()));
               });
  }
  if (engine == "auto") {
    options o;
    engine_router s(n, o);
    return run("auto/" + config_label(o), s, [&](obs::metrics_snapshot& snap) {
      obs::collect(snap, s.stats());
      if (const batch_dynamic_connectivity* d = s.dynamic_engine()) {
        obs::collect(snap, d->stats());
        obs::collect(snap, d->pool_stats());
      }
    });
  }
  if (engine == "hdt") {
    hdt_connectivity s(n);
    return run("hdt", s, [&](obs::metrics_snapshot& snap) {
      obs::collect(snap, s.stats());
    });
  }
  if (engine == "static") {
    static_recompute_connectivity s(n);
    return run("static", s, [&](obs::metrics_snapshot& snap) {
      snap.add_counter("static.full_recomputes", s.recomputes());
    });
  }
  incremental_connectivity s(n);
  return run("incremental", s, [](obs::metrics_snapshot&) {});
}

int self_demo(unsigned serve_threads) {
  std::printf("stream_runner self-demo: n=4096, m=16384, deletion stream "
              "with batch 512 + queries%s\n",
              serve_threads > 0 ? " (+ concurrent query serving)" : "");
  const vertex_id n = 4096;
  auto graph = gen_erdos_renyi(n, 4 * n, 1);
  auto stream = make_deletion_stream(graph, n, 1024, 512, 256, 2);
  // With --serve-queries, the first (dynamic) pass also serves and
  // differential-checks concurrent reads.
  for (const char* engine :
       {"dynamic", "dynamic-simple", "hdt", "static", "auto"}) {
    const unsigned serving =
        std::string_view(engine) == "dynamic" ? serve_threads : 0;
    if (int rc = run_structure(engine, n, stream, serving, /*check=*/false);
        rc != 0)
      return rc;
  }
  return 0;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s gen [--stream=deletion|mixed|window|hub] "
               "<erdos|rmat|grid> <n> <m> <batch> <seed> <out>\n"
               "  %s run [--engine=auto|dynamic|dynamic-simple|"
               "dynamic-scanall|hdt|static|incremental] "
               "[--workers=N] "
               "[--serve-queries=T] "
               "[--metrics=FILE] [--trace=FILE] "
               "[--assert-gauge-max=NAME:MAX] "
               "[--check] <stream-file>\n"
               "  %s                (self-demo; flags apply)\n",
               prog, prog, prog);
  return 2;
}

/// Post-replay trace flush, then the verdict line if every check passed.
/// Called once, after every structure and reader thread has been joined,
/// so the recorder's quiescence requirement holds.
int finish_run(int rc) {
  obs::trace_recorder& tr = obs::trace_recorder::global();
  if (!g_trace_path.empty() && tr.active()) {
    tr.disable();
    std::ofstream out(g_trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write trace file '%s'\n",
                   g_trace_path.c_str());
      return rc != 0 ? rc : 2;
    }
    const uint64_t dropped = tr.dropped();
    obs::export_chrome_trace(out, tr.drain(), dropped);
    std::fprintf(stderr,
                 "wrote chrome trace to %s (load via chrome://tracing or "
                 "ui.perfetto.dev)\n",
                 g_trace_path.c_str());
  }
  if (rc == 0) {
    std::printf("verdict: PASS (phased answers checked: %zu, deleted edges "
                "checked: %zu, served reads checked: %zu, gauge budgets "
                "held: %zu)\n",
                g_verdict.phased_checked, g_verdict.deleted_checked,
                g_verdict.served_checked, g_verdict.budgets_held);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return finish_run(self_demo(0));

  // Flags may appear anywhere; everything else is positional.
  std::string engine = "dynamic";
  unsigned serve_threads = 0;
  bool check = false;
  std::string stream_kind = "deletion";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--engine=", 0) == 0) {
      engine = a.substr(9);
      if (std::find(std::begin(kEngines), std::end(kEngines), engine) ==
          std::end(kEngines)) {
        std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
        return 2;
      }
    } else if (a.rfind("--workers=", 0) == 0) {
      auto w = parse_count(a.c_str() + 10, 1, 4096);
      if (!w) {
        std::fprintf(stderr, "bad --workers value '%s' (want 1..4096)\n",
                     a.c_str() + 10);
        return 2;
      }
      set_num_workers(*w);
    } else if (a.rfind("--serve-queries=", 0) == 0) {
      auto t = parse_count(a.c_str() + 16, 0, 256);
      if (!t) {
        std::fprintf(stderr,
                     "bad --serve-queries value '%s' (want 0..256)\n",
                     a.c_str() + 16);
        return 2;
      }
      serve_threads = *t;
    } else if (a.rfind("--stream=", 0) == 0) {
      stream_kind = a.substr(9);
      if (stream_kind != "deletion" && stream_kind != "mixed" &&
          stream_kind != "window" && stream_kind != "hub") {
        std::fprintf(stderr,
                     "bad --stream value '%s' "
                     "(want deletion|mixed|window|hub)\n",
                     stream_kind.c_str());
        return 2;
      }
    } else if (a.rfind("--assert-gauge-max=", 0) == 0) {
      std::string spec = a.substr(19);
      size_t colon = spec.rfind(':');
      int64_t limit = 0;
      bool ok = colon != std::string::npos && colon > 0;
      if (ok) {
        char* end = nullptr;
        errno = 0;
        limit = std::strtoll(spec.c_str() + colon + 1, &end, 10);
        ok = errno == 0 && end != spec.c_str() + colon + 1 && *end == '\0';
      }
      if (!ok) {
        std::fprintf(stderr,
                     "bad --assert-gauge-max value '%s' "
                     "(want <gauge-name>:<max>, e.g. levels.bytes:1000000)\n",
                     spec.c_str());
        return 2;
      }
      g_gauge_max.push_back({spec.substr(0, colon), limit});
    } else if (a.rfind("--metrics=", 0) == 0) {
      g_metrics_path = a.substr(10);
      if (g_metrics_path.empty()) {
        std::fprintf(stderr, "bad --metrics value (want a file path)\n");
        return 2;
      }
    } else if (a.rfind("--trace=", 0) == 0) {
      g_trace_path = a.substr(8);
      if (g_trace_path.empty()) {
        std::fprintf(stderr, "bad --trace value (want a file path)\n");
        return 2;
      }
    } else if (a == "--check") {
      check = true;
    } else if (a.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      args.push_back(std::move(a));
    }
  }
  // Arm the export sinks before any replay. --metrics appends one block
  // of JSON-lines per replayed configuration, so start from an empty
  // file; the trace covers the whole process and is flushed on exit.
  if (!g_metrics_path.empty()) {
    std::ofstream truncated(g_metrics_path, std::ios::trunc);
    if (!truncated) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n",
                   g_metrics_path.c_str());
      return 2;
    }
  }
  if (!g_trace_path.empty()) obs::trace_recorder::global().enable();

  if (args.empty()) return finish_run(self_demo(serve_threads));

  const std::string& cmd = args[0];
  if (cmd == "gen" && args.size() == 7) {
    std::string kind = args[1];
    vertex_id n = static_cast<vertex_id>(std::stoul(args[2]));
    size_t m = std::stoul(args[3]);
    size_t batch = std::stoul(args[4]);
    uint64_t seed = std::stoull(args[5]);
    std::vector<edge> graph;
    if (kind == "erdos") {
      graph = gen_erdos_renyi(n, m, seed);
    } else if (kind == "rmat") {
      graph = gen_rmat(n, m, seed);
    } else if (kind == "grid") {
      vertex_id side = 1;
      while (static_cast<size_t>(side) * side < n) ++side;
      graph = gen_grid(side, side);
      n = side * side;
    } else {
      std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
      return 2;
    }
    update_stream stream;
    if (stream_kind == "mixed") {
      stream = make_phase_skewed_stream(graph, n, batch,
                                        /*flood_batches=*/8,
                                        /*flood_queries=*/4 * batch,
                                        seed + 1);
    } else if (stream_kind == "window") {
      stream = make_sliding_window_stream(graph, std::max<size_t>(1, m / 2),
                                          batch, seed + 1);
    } else if (stream_kind == "hub") {
      stream = make_hub_churn_stream(graph, n, batch, /*rounds=*/3,
                                     seed + 1);
    } else {
      stream =
          make_deletion_stream(graph, n, batch, batch, batch / 4, seed + 1);
    }
    write_stream(args[6], n, stream);
    std::printf("wrote %zu batches over %u vertices to %s\n", stream.size(),
                n, args[6].c_str());
    return 0;
  }
  if (cmd == "run" && args.size() == 2) {
    vertex_id n = 0;
    update_stream stream;
    if (auto err = read_stream(args[1], n, stream); !err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    return finish_run(
        run_structure(engine, n, stream, serve_threads, check));
  }
  return usage(argv[0]);
}
