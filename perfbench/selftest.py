#!/usr/bin/env python3
"""Self-test of the tracked-run benchmark.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at a small input size and a
short time budget, it checks that

- the untraced run prints every end-to-end metric with its unit, and
  the traced run every per-layer metric with its unit, with zero failed
  operations;
- a run checked against a deliberately wrong reference counts every
  tracked run as failed and reports itself incorrect.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build and command line live there)

# small enough that a run takes a few seconds, large enough that every
# layer sees taint
SMALL = {"matmul-dense": 8, "poly-sparse": 200, "qsort-implicit": 60}
SECONDS = 0.5
TIMEOUT_S = 120


def result_of(workload, trace, extra=()):
    cmd = run.exe_command(
        workload, 1, SECONDS, trace, ["--size", str(SMALL[workload]), *extra]
    )
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_metrics(label, result, wanted):
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}",
    )
    expect(result["correct"] is True, f"{label}: not correct")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
    got = result["metrics"]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        expect(name in got, f"{label}: metric {name} missing")
        expect(
            got[name]["unit"] == unit,
            f"{label}: {name} in {got[name]['unit']}, not {unit}",
        )
        expect(
            isinstance(got[name]["value"], (int, float)),
            f"{label}: {name} is not a number",
        )
    extra = set(got) - {m["name"] for m in wanted}
    expect(not extra, f"{label}: unlisted metrics {sorted(extra)}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    code = run.build()
    if code != 0:
        return code
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(
            f"{name} untraced", result_of(name, 0), bench["end_to_end"]
        )
        check_metrics(
            f"{name} traced", result_of(name, 1), bench["per_layer"]
        )
        wrong = result_of(name, 0, ["--wrong-reference"])
        expect(wrong["correct"] is False, f"{name}: wrong reference passed")
        expect(
            wrong["failed"] == wrong["attempted"] >= 1,
            f"{name}: wrong reference failed {wrong['failed']} "
            f"of {wrong['attempted']}",
        )
        print(f"ok {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
