#!/usr/bin/env python3
"""Record the output digests run.py checks against (perfbench/digests.json).

    python3 perfbench/record.py

For every workload, every recorded seed and every recorded run length
(run.RECORDED_SEEDS, run.RECORDED_SECONDS) it runs the untraced gate and
the traced run, requires both to produce the same digests with no
structural problem, and rewrites the whole table, together with the storm
workload's coverage counts at the full run length. Re-record only when a
change is meant to alter the simulation's output; the digests are what
proves that a speed-up left every result unchanged.
"""
import json
import subprocess
import sys

import run


def execute(binary, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    gate = run.build("perfbench_gate")
    trace = run.build("perfbench_trace")
    table = {"workloads": {}}
    for workload in run.WORKLOADS:
        for seed in run.RECORDED_SEEDS:
            entry = {"ops": {}}
            table["workloads"].setdefault(workload, {})[str(seed)] = entry
            for seconds in run.RECORDED_SECONDS:
                untraced = execute(gate, workload, seed, seconds)
                traced = execute(trace, workload, seed, seconds)
                for a, b in zip(untraced["ops"], traced["ops"], strict=True):
                    if a["problem"] or b["problem"] or a["name"] != b["name"] or \
                            a["digest"] != b["digest"]:
                        sys.exit(f"{workload} seed {seed}: {a} vs {b}")
                    entry["ops"][a["name"]] = a["digest"]
                if workload == "storm-fleet" and seconds == run.RECORDED_SECONDS[0]:
                    counts = traced["counts"]
                    entry["seq_holes"] = counts["mesh.seq_holes"]
                    entry["digest_bytes_per_exchange"] = round(
                        counts["mesh.digest_bytes"] / counts["mesh.exchanges"], 1)
                print(f"{workload} seed {seed} {seconds}s: {len(untraced['ops'])} ops", flush=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
