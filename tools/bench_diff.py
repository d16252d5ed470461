#!/usr/bin/env python3
"""Diff two Google Benchmark JSON artifacts and flag regressions.

    tools/bench_diff.py OLD.json NEW.json [--threshold PCT] [--no-fail]
    tools/bench_diff.py OLD.jsonl NEW.jsonl --counters [--gate]

CI diffs a fresh ``bench_micro`` run against the committed ledger,
``BENCH_micro.json`` at the repository root, with ``--no-fail``.

``--counters`` reads the JSON-lines metric snapshots written by
``stream_runner --metrics=FILE`` (one ``{"label":...,"metric":...}``
object per line) instead of Google Benchmark JSON; CI diffs the
telemetry smoke's snapshot against the committed
``BENCH_counters.jsonl``. Pipeline counters like publishes_full or
edges_fetched are workload truth, not timing noise, so a change beyond
the threshold in EITHER direction is flagged ``CHANGED`` for a human to
read — a dropped fetch count and a doubled full-walk count both deserve
eyes — and a compared row present in only one snapshot is flagged
``MISSING``. Counter diffs are advisory (exit 0) unless ``--gate`` is
given: then any flagged row exits 1. The work ledger CTest
(``smoke.counters_ledger``) gates the telemetry smoke's snapshot
against the committed ledger at ``--threshold 0``, so any change to
the work a replay does must re-record the ledger. The ``sched.*``
(forks, steals) and ``replay.*`` (wall times) rows depend on the host
and its load, not on the code: they are listed in a separate
"host-dependent, not compared" section and never flagged. Keyed by ``label/metric``; histograms
compare their ``count``. Gauges flow through unchanged, which makes the
memory footprint gauges (``levels.materialized`` /
``levels.active_vertices`` / ``levels.bytes``, plus the ``pool.*``
retention set) diffable the same way — a silent return to
O(n)-per-level allocation shows up here as a ``levels.bytes`` jump on
the committed trace.

Exit status is 0 when clean, 1 on regression (with ``--no-fail`` the
report still prints but the exit status stays 0 — useful on noisy shared
runners), and 1 on a flagged counter row with ``--counters --gate``.
"""

import argparse
import json
import sys


# Google Benchmark writes real_time in each row's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


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
        out[name] = float(real) * NS_PER_UNIT[bench.get("time_unit", "ns")]
    return out


def load_counters(path):
    """Maps "label/metric" -> value for one stream_runner JSONL snapshot.

    Counters and gauges contribute their value; histograms contribute
    their count (how often the phase ran — its duration is timing, which
    the micro-benchmark ledger already tracks).
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


# Metric prefixes whose values track the host (scheduler steals, wall
# times), so two runs of one binary disagree on them.
HOST_DEPENDENT = ("sched.", "replay.")


def host_dependent(key):
    return key.rsplit("/", 1)[-1].startswith(HOST_DEPENDENT)


def diff_counters(old, new, threshold):
    """Direction-agnostic: returns (common, changed, host, missing) where
    changed is [(key, old, new, pct)] for moves beyond the threshold
    either way, over the work counters only, host lists the
    host-dependent keys the two snapshots share, and missing the work
    counters only one snapshot has. A counter moving off or onto zero is
    always a change worth seeing.
    """
    shared = sorted(set(old) & set(new))
    common = [k for k in shared if not host_dependent(k)]
    host = [k for k in shared if host_dependent(k)]
    missing = sorted(k for k in set(old) ^ set(new)
                     if not host_dependent(k))
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
    return common, changed, host, missing


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
    parser.add_argument("old", help="baseline artifact")
    parser.add_argument("new", help="current artifact")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10)",
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
             "flag counter changes in either direction (exit 0 unless "
             "--gate)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="with --counters: exit 1 on any flagged work counter",
    )
    args = parser.parse_args()

    loader = load_counters if args.counters else load_benchmarks

    old = loader(args.old)
    new = loader(args.new)

    if args.counters:
        common, changed, host, missing = diff_counters(old, new,
                                                       args.threshold)
        mode = ("gate: exit 1 on any flagged row" if args.gate
                else "advisory: always exit 0")
        print(f"bench_diff: {len(common)} comparable counters vs "
              f"{args.old}, threshold {args.threshold:.1f}% ({mode})")
        for key, o, n, pct in changed:
            arrow = "inf" if pct == float("inf") else f"{pct:+.1f}%"
            print(f"  CHANGED {key}: {o:.0f} -> {n:.0f} ({arrow})")
        for key in missing:
            side = args.new if key in old else args.old
            print(f"  MISSING {key}: not in {side}")
        if not changed and not missing:
            print("  no counter changes beyond threshold")
        if host:
            print(f"  host-dependent, not compared ({len(host)}):")
            for key in host:
                print(f"    {key}: {old[key]:.0f} -> {new[key]:.0f}")
        return 1 if args.gate and (changed or missing) else 0

    common, only_old, only_new, regressions, improvements = diff(
        old, new, args.threshold)

    print(f"bench_diff: {len(common)} comparable benchmarks vs "
          f"{args.old} ({len(only_new)} new, {len(only_old)} removed), "
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
        # read as "no regression" until the ledger is re-recorded.
        for name in only_old:
            print(f"  WARNING disappeared benchmark: {name} "
                  f"(in {args.old}, missing from current run)")
    if not regressions:
        print("  no regressions beyond threshold")
        return 0
    return 0 if args.no_fail else 1


if __name__ == "__main__":
    sys.exit(main())
