#!/usr/bin/env python3
"""Build and run the tracked-run benchmark on one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload matmul-dense --seed 7 \
        --seconds 30 --trace 0

The benchmark executable is built from source with dune (the first run
in a fresh checkout compiles the libraries it links), then run once.
Its standard output is passed through; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The
exit code is non-zero when the build or the run fails, or when the
sources of the program are not there.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "e2e.exe")
BUILD_TIMEOUT_S = 840
# the run itself spends --seconds measuring, plus set-up
RUN_SLACK_S = 120


def sources_present():
    return os.path.isfile("dune-project") and os.path.isdir(
        os.path.join("lib", "parallel")
    )


def build():
    """Build the executable; returns dune's exit code.  Dune's own output
    goes to stderr, so the benchmark's last stdout line stays the result."""
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/e2e.exe"],
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    return proc.returncode


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def exe_command(workload, seed, seconds, trace, extra=()):
    return [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--nproc", str(nproc()),
        "--out", ".perfbench",
        *extra,
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not sources_present():
        print(
            "run.py: dune-project and lib/ not found; run from the root of "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    code = build()
    if code != 0:
        print(f"run.py: build failed (dune exit {code})", file=sys.stderr)
        return code
    proc = subprocess.run(
        exe_command(args.workload, args.seed, args.seconds, args.trace),
        timeout=args.seconds + RUN_SLACK_S,
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
