#!/usr/bin/env python3
"""Self-test of the benchmark's output check, on short runs (~3 min).

    python3 perfbench/selftest.py

For every workload, on the default seed and the short run length that
digests.json also records:
  * the untraced run is correct;
  * the same run with one result perturbed reports that operation as
    failed (and the run as incorrect);
  * the traced run reproduces the untraced counts and digests.
Exits non-zero on the first expectation that does not hold.
"""
import json
import subprocess
import sys

import run

SEED = run.RECORDED_SEEDS[0]
SECONDS = run.RECORDED_SECONDS[-1]


def result(workload, trace, *extra):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition, what):
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        sys.exit(1)


def main():
    for workload in run.WORKLOADS:
        clean = result(workload, 0)
        expect(clean["correct"] and clean["failed"] == 0, f"{workload}: untraced run is correct")
        bad = result(workload, 0, "--perturb")
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{workload}: perturbed result counts as failed ({bad['failed']}/{bad['attempted']})")
        traced = result(workload, 1)
        expect(traced["correct"] and traced["attempted"] == clean["attempted"],
               f"{workload}: traced run reproduces the untraced run")


if __name__ == "__main__":
    main()
