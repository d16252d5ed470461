#!/usr/bin/env python3
"""Self-test for bench_diff.py: the pairwise and --counters modes, and
the committed ledgers (BENCH_micro.json, BENCH_counters.jsonl) CI diffs
against, which must load and carry rows. Run by CTest as
smoke.bench_diff."""

import json
import os
import re
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(TOOLS, "bench_diff.py")
REPO = os.path.dirname(TOOLS)


def write_run(path, times, unit="ns"):
    doc = {"benchmarks": [{"name": name, "real_time": t, "time_unit": unit,
                           "run_type": "iteration"}
                          for name, t in times.items()]}
    with open(path, "w") as f:
        json.dump(doc, f)


def write_counters(path, values, label="dynamic/blocked"):
    """One stream_runner-style JSONL snapshot; a ("histogram", count)
    value becomes a histogram row with that count in its `count` field."""
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

        # Rows timed in ms are reported, and compared, in ns.
        old_ms = os.path.join(tmp, "old_ms.json")
        new_ms = os.path.join(tmp, "new_ms.json")
        write_run(old_ms, {"BM_Ms": 2.0}, unit="ms")
        write_run(new_ms, {"BM_Ms": 3.0}, unit="ms")
        rc, out = run(old_ms, new_ms, "--threshold", "10")
        check("pairwise.time_unit",
              rc == 1 and "BM_Ms: 2000000 -> 3000000 ns" in out, out)

        # Disappeared benchmarks warn (advisory — exit stays 0 when the
        # surviving benchmarks are clean).
        shrunk = os.path.join(tmp, "shrunk.json")
        write_run(shrunk, {"BM_A": 100.0})
        rc, out = run(old, shrunk, "--threshold", "10")
        check("pairwise.disappeared_warns",
              rc == 0 and "WARNING disappeared benchmark: BM_B" in out, out)

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

        # Host-dependent rows (sched.*, replay.*) are listed in their own
        # section, never flagged, and not counted as comparable.
        hold = os.path.join(tmp, "hold.jsonl")
        hnew = os.path.join(tmp, "hnew.jsonl")
        write_counters(hold, {"core.edges_pushed": 100, "sched.steals": 83,
                              "replay.insert_us": 1000})
        write_counters(hnew, {"core.edges_pushed": 100,
                              "sched.steals": 12456,
                              "replay.insert_us": 0})
        rc, out = run(hold, hnew, "--counters", "--threshold", "10")
        check("counters.host_dependent_not_flagged",
              rc == 0 and "CHANGED" not in out
              and "no counter changes" in out
              and "1 comparable counters" in out, out)
        host = out.split("host-dependent, not compared", 1)[-1]
        check("counters.host_dependent_listed",
              "dynamic/blocked/sched.steals: 83 -> 12456" in host
              and "dynamic/blocked/replay.insert_us: 1000 -> 0" in host,
              out)

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

        # --gate (the work ledger CTest, at threshold 0): any moved work
        # row exits 1, and so does a work row one snapshot lacks; moved
        # host-dependent rows still pass.
        def gate(old_path, new_path):
            return run(old_path, new_path, "--counters", "--gate",
                       "--threshold", "0")

        rc, out = gate(cold, cold)
        check("gate.clean", rc == 0 and "no counter changes" in out, out)
        gmoved = os.path.join(tmp, "gmoved.jsonl")
        write_counters(gmoved, {"publish.full_walks": 10,
                                "core.edges_fetched": 1001,
                                "span.batch.delete.us": ("histogram", 20)})
        rc, out = gate(cold, gmoved)
        check("gate.moved_work_row_fails",
              rc == 1 and "CHANGED dynamic/blocked/core.edges_fetched"
              in out, out)
        rc, out = gate(hold, hnew)
        check("gate.moved_replay_row_passes",
              rc == 0 and "CHANGED" not in out
              and "dynamic/blocked/replay.insert_us: 1000 -> 0" in out, out)
        gdropped = os.path.join(tmp, "gdropped.jsonl")
        write_counters(gdropped, {"publish.full_walks": 10,
                                  "span.batch.delete.us": ("histogram", 20)})
        rc, out = gate(cold, gdropped)
        check("gate.missing_work_row_fails",
              rc == 1 and "MISSING dynamic/blocked/core.edges_fetched"
              in out, out)
        rc, out = run(cold, gdropped, "--counters")
        check("counters.missing_row_advisory",
              rc == 0 and "MISSING dynamic/blocked/core.edges_fetched"
              in out, out)

    # The committed ledgers: each must load, and diffing it against
    # itself must compare at least one row.
    rc, out = run(os.path.join(REPO, "BENCH_micro.json"),
                  os.path.join(REPO, "BENCH_micro.json"))
    rows = re.search(r"(\d+) comparable benchmarks", out)
    check("ledger.micro", rc == 0 and rows and int(rows.group(1)) > 0, out)
    rc, out = run(os.path.join(REPO, "BENCH_counters.jsonl"),
                  os.path.join(REPO, "BENCH_counters.jsonl"), "--counters")
    rows = re.search(r"(\d+) comparable counters", out)
    check("ledger.counters", rc == 0 and rows and int(rows.group(1)) > 0,
          out)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all bench_diff checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
