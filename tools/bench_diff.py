#!/usr/bin/env python3
"""Diff Google Benchmark JSON artifacts and flag regressions.

Two modes:

* Pairwise (the original): compare the current run against one previous
  artifact.

      tools/bench_diff.py OLD.json NEW.json [--threshold PCT] [--no-fail]

* Rolling history: compare the current run against the per-benchmark
  MEDIAN of the last N artifacts in a history directory, so one noisy CI
  run can neither mask nor fake a trend. CI appends every Release run's
  ``BENCH_substrates.json`` to the ``bench-history`` artifact series and
  diffs against the rolling median instead of only the immediately
  preceding run.

      tools/bench_diff.py NEW.json --history DIR [--median-of N]
                          [--threshold PCT] [--no-fail]

Either mode also accepts ``--counters``: the artifacts are then the
JSON-lines metric snapshots written by ``stream_runner --metrics=FILE``
(one ``{"label":...,"metric":...}`` object per line) instead of Google
Benchmark JSON. Counter diffs are ALWAYS advisory (exit 0): pipeline
counters like publishes_full or edges_fetched are workload truth, not
timing noise, so a change beyond the threshold in EITHER direction is
flagged ``CHANGED`` for a human to read — a dropped fetch count and
a doubled full-walk count both deserve eyes, but neither should gate a
merge on its own. Keyed by ``label/metric``; histograms compare their
``count``. Gauges flow through unchanged, which makes the memory
footprint gauges (``levels.materialized`` / ``levels.active_vertices``
/ ``levels.bytes``, plus the ``pool.*`` retention set) diffable across
CI runs the same way — a silent return to O(n)-per-level allocation
shows up here as a ``levels.bytes`` jump on the committed trace.

History files are consumed in sorted-name order (CI names them by run
number, so sorted order is chronological); only the last ``--median-of``
(default 5) contribute to the median. Exit status is 0 when clean, 1 on
regression (with ``--no-fail`` the report still prints but the exit
status stays 0 — useful on noisy shared runners where the trajectory
matters more than any single datapoint).
"""

import argparse
import json
import os
import statistics
import sys


def load_benchmarks(path):
    """Maps benchmark name -> real_time (ns) for one artifact."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev of repeated runs) would double
        # count; keep plain iteration rows only.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real = bench.get("real_time")
        if name is None or real is None:
            continue
        out[name] = float(real)
    return out


def load_counters(path):
    """Maps "label/metric" -> value for one stream_runner JSONL snapshot.

    Counters and gauges contribute their value; histograms contribute
    their count (how often the phase ran — its duration is timing, which
    the benchmark series already tracks).
    """
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            metric = rec.get("metric")
            if not isinstance(metric, str):
                continue
            key = f"{rec.get('label', '')}/{metric}"
            value = (rec.get("count") if rec.get("kind") == "histogram"
                     else rec.get("value"))
            if isinstance(value, (int, float)):
                out[key] = float(value)
    return out


def diff_counters(old, new, threshold):
    """Direction-agnostic: returns (common, changed) where changed is
    [(key, old, new, pct)] for moves beyond the threshold either way.
    A counter moving off or onto zero is always a change worth seeing.
    """
    common = sorted(set(old) & set(new))
    changed = []
    for key in common:
        if old[key] == 0 and new[key] == 0:
            continue
        if old[key] == 0 or new[key] == 0:
            changed.append((key, old[key], new[key], float("inf")))
            continue
        pct = 100.0 * (new[key] - old[key]) / old[key]
        if abs(pct) > threshold:
            changed.append((key, old[key], new[key], pct))
    return common, changed


def load_history_median(history_dir, median_of, loader=load_benchmarks):
    """Per-benchmark median over the last `median_of` history artifacts.

    Returns (baseline dict, number of artifacts used). A benchmark only
    enters the baseline if at least one retained artifact carries it.
    """
    paths = sorted(
        os.path.join(history_dir, name)
        for name in os.listdir(history_dir)
        if name.endswith(".json") or name.endswith(".jsonl")
    )
    paths = paths[-median_of:]
    series = {}
    used = 0
    for path in paths:
        try:
            run = loader(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_diff: skipping unreadable artifact {path}: {err}")
            continue
        used += 1
        for name, real in run.items():
            series.setdefault(name, []).append(real)
    return {name: statistics.median(vals) for name, vals in series.items()}, used


def diff(old, new, threshold):
    """Returns (common, only_old, only_new, regressions, improvements)."""
    common = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    regressions = []
    improvements = []
    for name in common:
        if old[name] <= 0:
            continue
        delta_pct = 100.0 * (new[name] - old[name]) / old[name]
        if delta_pct > threshold:
            regressions.append((name, old[name], new[name], delta_pct))
        elif delta_pct < -threshold:
            improvements.append((name, old[name], new[name], delta_pct))
    return common, only_old, only_new, regressions, improvements


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifacts", nargs="+",
                        help="OLD.json NEW.json, or just NEW.json with "
                             "--history")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10)",
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        help="diff NEW.json against the rolling median of the *.json "
             "artifacts in DIR instead of a single OLD.json",
    )
    parser.add_argument(
        "--median-of",
        type=int,
        default=5,
        help="number of most-recent history artifacts in the median "
             "(default: 5)",
    )
    parser.add_argument(
        "--no-fail",
        action="store_true",
        help="report regressions but exit 0 (for noisy runners)",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="artifacts are stream_runner --metrics JSONL snapshots; "
             "flag counter changes in either direction, always exit 0",
    )
    args = parser.parse_args()

    loader = load_counters if args.counters else load_benchmarks

    if args.history is not None:
        if len(args.artifacts) != 1:
            parser.error("--history takes exactly one NEW.json")
        if args.median_of < 1:
            parser.error("--median-of must be >= 1")
        old, used = load_history_median(args.history, args.median_of,
                                        loader)
        if used == 0:
            print("bench_diff: empty history; nothing to diff against")
            return 0
        baseline_desc = f"median of last {used} run(s)"
        new = loader(args.artifacts[0])
    else:
        if len(args.artifacts) != 2:
            parser.error("expected OLD.json NEW.json (or NEW.json --history DIR)")
        old = loader(args.artifacts[0])
        new = loader(args.artifacts[1])
        baseline_desc = "previous run"

    if args.counters:
        common, changed = diff_counters(old, new, args.threshold)
        print(f"bench_diff: {len(common)} comparable counters vs "
              f"{baseline_desc}, threshold {args.threshold:.1f}% "
              f"(advisory: always exit 0)")
        for key, o, n, pct in changed:
            arrow = "inf" if pct == float("inf") else f"{pct:+.1f}%"
            print(f"  CHANGED {key}: {o:.0f} -> {n:.0f} ({arrow})")
        if not changed:
            print("  no counter changes beyond threshold")
        return 0

    common, only_old, only_new, regressions, improvements = diff(
        old, new, args.threshold)

    print(f"bench_diff: {len(common)} comparable benchmarks vs "
          f"{baseline_desc} ({len(only_new)} new, {len(only_old)} removed), "
          f"threshold {args.threshold:.1f}%")
    for name, o, n, pct in improvements:
        print(f"  IMPROVED  {name}: {o:.0f} -> {n:.0f} ns ({pct:+.1f}%)")
    for name, o, n, pct in regressions:
        print(f"  REGRESSED {name}: {o:.0f} -> {n:.0f} ns ({pct:+.1f}%)")
    if only_new:
        print("  new benchmarks: " + ", ".join(only_new))
    if only_old:
        # Advisory, not fatal: a benchmark present in the baseline but
        # absent from the current run usually means a renamed case or a
        # dropped registration — silent disappearance would otherwise
        # read as "no regression" forever (the rolling median keeps the
        # stale name alive for --median-of runs).
        for name in only_old:
            print(f"  WARNING disappeared benchmark: {name} "
                  f"(in {baseline_desc}, missing from current run)")
    if not regressions:
        print("  no regressions beyond threshold")
        return 0
    return 0 if args.no_fail else 1


if __name__ == "__main__":
    sys.exit(main())
