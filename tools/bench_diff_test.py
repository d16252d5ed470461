#!/usr/bin/env python3
"""Self-test for bench_diff.py: pairwise mode, rolling-median history
mode (one outlier run must not fake or mask a regression), and the
empty-history edge case. Run by CTest as smoke.bench_diff."""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def write_run(path, times):
    doc = {"benchmarks": [{"name": name, "real_time": t, "run_type":
                           "iteration"} for name, t in times.items()]}
    with open(path, "w") as f:
        json.dump(doc, f)


def write_counters(path, values, label="dynamic/blocked"):
    """One stream_runner-style JSONL snapshot; values of None become a
    histogram row with that key's count carried in a `count` field."""
    with open(path, "w") as f:
        for metric, value in values.items():
            if isinstance(value, tuple):  # (kind="histogram", count)
                f.write(json.dumps({"label": label, "metric": metric,
                                    "kind": "histogram", "count": value[1],
                                    "sum": 10 * value[1],
                                    "buckets": [0, value[1]]}) + "\n")
            else:
                f.write(json.dumps({"label": label, "metric": metric,
                                    "kind": "counter",
                                    "value": value}) + "\n")


def run(*argv):
    proc = subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main():
    failures = []

    def check(name, cond, detail=""):
        if not cond:
            failures.append(f"{name}: {detail}")
            print(f"FAIL {name} {detail}")
        else:
            print(f"ok   {name}")

    with tempfile.TemporaryDirectory() as tmp:
        old = os.path.join(tmp, "old.json")
        new = os.path.join(tmp, "new.json")
        write_run(old, {"BM_A": 100.0, "BM_B": 100.0})
        write_run(new, {"BM_A": 100.0, "BM_B": 150.0})

        rc, out = run(old, new, "--threshold", "10")
        check("pairwise.regression", rc == 1 and "REGRESSED BM_B" in out,
              out)
        rc, out = run(old, new, "--threshold", "10", "--no-fail")
        check("pairwise.no_fail", rc == 0 and "REGRESSED BM_B" in out, out)
        rc, out = run(old, old, "--threshold", "10")
        check("pairwise.clean", rc == 0 and "no regressions" in out, out)

        # History: three steady runs plus one wild outlier. The rolling
        # median must sit at the steady value, so the outlier neither
        # fakes a regression for a steady NEW run nor masks a real one.
        hist = os.path.join(tmp, "history")
        os.mkdir(hist)
        write_run(os.path.join(hist, "run-001.json"), {"BM_A": 100.0})
        write_run(os.path.join(hist, "run-002.json"), {"BM_A": 102.0})
        write_run(os.path.join(hist, "run-003.json"), {"BM_A": 1000.0})
        write_run(os.path.join(hist, "run-004.json"), {"BM_A": 98.0})

        steady = os.path.join(tmp, "steady.json")
        write_run(steady, {"BM_A": 101.0})
        rc, out = run(steady, "--history", hist, "--median-of", "4")
        check("history.outlier_does_not_fake", rc == 0 and
              "no regressions" in out, out)

        slow = os.path.join(tmp, "slow.json")
        write_run(slow, {"BM_A": 200.0})
        rc, out = run(slow, "--history", hist, "--median-of", "4")
        check("history.outlier_does_not_mask",
              rc == 1 and "REGRESSED BM_A" in out, out)

        # --median-of windows from the most recent (sorted) artifacts:
        # with a window of 1 the baseline is run-004 (98 ns).
        rc, out = run(steady, "--history", hist, "--median-of", "1")
        check("history.window", rc == 0 and "last 1 run" in out, out)

        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        rc, out = run(steady, "--history", empty)
        check("history.empty", rc == 0 and "empty history" in out, out)

        # Disappeared benchmarks warn (advisory — exit stays 0 when the
        # surviving benchmarks are clean), in both modes.
        shrunk = os.path.join(tmp, "shrunk.json")
        write_run(shrunk, {"BM_A": 100.0})
        rc, out = run(old, shrunk, "--threshold", "10")
        check("pairwise.disappeared_warns",
              rc == 0 and "WARNING disappeared benchmark: BM_B" in out, out)
        rc, out = run(steady, "--history", hist, "--median-of", "4")
        check("history.no_spurious_disappeared_warning",
              "WARNING disappeared" not in out, out)
        write_run(os.path.join(hist, "run-005.json"),
                  {"BM_A": 100.0, "BM_GONE": 50.0})
        rc, out = run(steady, "--history", hist, "--median-of", "4")
        check("history.disappeared_warns",
              rc == 0 and "WARNING disappeared benchmark: BM_GONE" in out,
              out)

        # --counters mode: advisory (exit 0 even on change), flags moves
        # in EITHER direction, keys by label/metric, histograms by count.
        cold = os.path.join(tmp, "cold.jsonl")
        cnew = os.path.join(tmp, "cnew.jsonl")
        write_counters(cold, {"publish.full_walks": 10,
                              "core.edges_fetched": 1000,
                              "span.batch.delete.us": ("histogram", 20)})
        write_counters(cnew, {"publish.full_walks": 30,
                              "core.edges_fetched": 500,
                              "span.batch.delete.us": ("histogram", 20)})
        rc, out = run(cold, cnew, "--counters", "--threshold", "10")
        check("counters.advisory_exit0", rc == 0, out)
        check("counters.flags_increase",
              "CHANGED dynamic/blocked/publish.full_walks" in out, out)
        check("counters.flags_decrease",
              "CHANGED dynamic/blocked/core.edges_fetched" in out, out)
        check("counters.stable_histogram_not_flagged",
              "span.batch.delete.us" not in out, out)

        rc, out = run(cold, cold, "--counters", "--threshold", "10")
        check("counters.clean",
              rc == 0 and "no counter changes" in out, out)

        # Zero-crossing counters are always flagged: 0 -> anything (and
        # back) is a behavior change no percentage can express.
        czero = os.path.join(tmp, "czero.jsonl")
        write_counters(czero, {"publish.full_walks": 0,
                               "core.edges_fetched": 1000,
                               "span.batch.delete.us": ("histogram", 20)})
        rc, out = run(czero, cnew, "--counters", "--threshold", "10")
        check("counters.zero_crossing_flagged",
              rc == 0 and "CHANGED dynamic/blocked/publish.full_walks"
              in out, out)

        # History mode composes with --counters (.jsonl files in DIR).
        chist = os.path.join(tmp, "counter-history")
        os.mkdir(chist)
        for i, fetched in enumerate([1000, 1010, 990]):
            write_counters(os.path.join(chist, f"metrics-{i:03d}.jsonl"),
                           {"core.edges_fetched": fetched})
        rc, out = run(cnew, "--counters", "--history", chist,
                      "--median-of", "3")
        check("counters.history_median",
              rc == 0 and "CHANGED dynamic/blocked/core.edges_fetched"
              in out, out)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all bench_diff checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
