#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload calm-fleet|storm-fleet|icares-replay
                             --seed N --seconds S --trace 0|1 [--perturb]

Run from the root of a checkout. The first run configures and builds the
two benchmark executables (perfbench/CMakeLists.txt pulls in the
repository's own build) under $CARGO_TARGET_DIR, default .bench_build.

--trace 0 runs perfbench_gate, the untraced end-to-end run, and reports the
end-to-end metrics. --trace 1 runs perfbench_trace, which times each
layer's public calls next to an untraced copy of the same work, and reports
the per-layer metrics. Either way every operation's output digest is
compared with perfbench/digests.json (recorded seeds only) and its
structural check must hold; an operation that fails either, or raises an
error, is counted in "failed". If the executable dies or overruns its time
limit, every operation it planned counts as failed. --perturb alters the
first operation's result to show that the check catches it.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Exit status 2, with no result line, means the sources are missing or the
benchmark could not be built.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("calm-fleet", "storm-fleet", "icares-replay")
# digests.json holds the digests of the default seed and of a held-out one,
# at BENCHMARK.json's run length and at the self-test's short one.
RECORDED_SEEDS = (42, 1009)
RECORDED_SECONDS = (30, 8)
# The whole build (configure and compile) must end in this time, so a first
# run that builds still ends within 900 s.
BUILD_DEADLINE_S = 700


def run_timeout_s(seconds):
    """Time limit of one executable run: the traced run does the work about
    twice (untraced and traced copies), so 5x with some slack; 170 s at the
    benchmark's 30 s."""
    return 20 + 5 * seconds


END_TO_END = {
    "habitat_days_per_s": "habitat-days/s",
    "analysis_records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_TIMES = (
    "badge.tick_s", "crew.tick_s", "mesh.gossip_s", "sim.kernel_s", "mesh.offload_s",
    "mesh.read_s", "support.ingest_s", "scenario.expand_s", "obs.report_s", "fleet.fold_s",
    "core.assemble_s", "locate.fig2_s", "locate.fig3_s", "dsp.fig4_s", "dsp.fig6_s",
    "sna.meetings_s", "core.timeline_s", "core.stats_s",
)
LAYER_COUNTS = (
    "badge.records", "mesh.exchanges", "mesh.chunks_replicated", "mesh.seq_holes",
    "faults.activated", "mesh.offload_deferrals", "support.alerts", "obs.spans_stored",
    "obs.spans_dropped", "core.records_attributed",
)
# The traced run must charge at least this share of its wall time to layers.
MIN_ATTRIBUTED = 0.90


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure once, then (re)build only `target`, so a traced run that
    no longer compiles cannot take the end-to-end gate down with it."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no HabSense sources next to {BENCH.name}/ (looked in {ROOT})")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    deadline = time.monotonic() + BUILD_DEADLINE_S
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as err:
                die(f"build step {' '.join(cmd)} failed: {err}")
            if proc.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step failed (exit {proc.returncode}); log: {log_path}")
    return out / target


def run(binary, args):
    """(output, planned): the executable's result object, or None when it
    died, overran its time limit or printed no result; and the number of
    operations it said it would attempt (1 if it never said)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.perturb:
        cmd.append("--perturb")
    if args.trace:
        cmd += ["--spans", str(build_dir() / f"spans-{args.workload}-{args.seed}.csv")]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        stdout, status = proc.stdout, proc.returncode
        sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired as err:
        stdout = err.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        status = f"killed after {timeout} s"
    lines = stdout.strip().splitlines()
    planned = 1
    try:
        planned = max(1, int(json.loads(lines[0])["planned"]))
    except (IndexError, ValueError, KeyError, TypeError):
        pass
    output = None
    if status == 0 and len(lines) > 1:
        try:
            output = json.loads(lines[-1])
        except ValueError:
            pass
    if output is None:
        print(f"perfbench: {binary.name} gave no result (status {status})", file=sys.stderr)
    return output, planned


def recorded(workload, seed):
    """The digests and facts recorded for (workload, seed), or {}."""
    table = json.loads((BENCH / "digests.json").read_text())
    return table["workloads"].get(workload, {}).get(str(seed), {})


def check_ops(ops, expected):
    """(attempted, failed): an operation fails on a structural problem or
    when its digest differs from the one recorded for it."""
    attempted = failed = 0
    for op in ops:
        attempted += op["count"]
        want = expected.get(op["name"])
        if op["problem"]:
            print(f"perfbench: {op['name']}: {op['problem']}", file=sys.stderr)
            failed += op["count"]
        elif want is not None and want != op["digest"]:
            print(f"perfbench: {op['name']}: digest {op['digest']} != recorded {want}",
                  file=sys.stderr)
            failed += op["count"]
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def gate_metrics(out):
    if out["workload"] == "storm-fleet":
        info = out["info"]
        print(f"storm coverage: mesh.digest_bytes_per_exchange="
              f"{info['mesh.digest_bytes_per_exchange']:.1f} over {info['habitats']} habitats")
    return {name: metric(out["metrics"][name], unit) for name, unit in END_TO_END.items()}, True


def trace_metrics(out, facts):
    layers, counts = out["layers"], out["counts"]
    metrics = {name: metric(layers[name], "s") for name in LAYER_TIMES}
    metrics.update({name: metric(counts[name], "count") for name in LAYER_COUNTS})
    exchanges, offloaded = counts["mesh.exchanges"], counts["mesh.chunks_offloaded"]
    per_exchange = counts["mesh.digest_bytes"] / exchanges if exchanges else 0.0
    metrics["mesh.digest_bytes_per_exchange"] = metric(per_exchange, "B/exchange")
    metrics["mesh.ack_ratio"] = metric(
        counts["mesh.chunks_acked"] / offloaded if offloaded else 0.0, "ratio")
    traced, untraced = out["traced_s"], out["untraced_s"]
    metrics["trace.overhead_pct"] = metric(100.0 * (traced / untraced - 1.0), "%")
    attributed = out["attributed_s"] / traced
    metrics["trace.attributed_pct"] = metric(100.0 * attributed, "%")

    ok = True
    if attributed < MIN_ATTRIBUTED:
        print(f"perfbench: layers account for {100 * attributed:.1f} % of the traced run, "
              f"below {100 * MIN_ATTRIBUTED:.0f} %", file=sys.stderr)
        ok = False
    if out["workload"] == "storm-fleet":
        print(f"storm coverage: mesh.seq_holes={counts['mesh.seq_holes']} "
              f"mesh.digest_bytes_per_exchange={per_exchange:.1f}")
        if facts and counts["mesh.seq_holes"] < 1:
            print("perfbench: a recorded storm seed produced no sequence hole", file=sys.stderr)
            ok = False
    return metrics, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench_trace" if args.trace else "perfbench_gate")
    out, planned = run(binary, args)
    if out is None:
        print(json.dumps({"correct": False, "attempted": planned, "failed": planned,
                          "metrics": {}}))
        return
    facts = recorded(args.workload, args.seed)
    attempted, failed = check_ops(out["ops"], facts.get("ops", {}))
    metrics, ok = trace_metrics(out, facts) if args.trace else gate_metrics(out)
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
