#!/usr/bin/env bash
# Tier-1 CI gate: build and test the matrix in CMakePresets.json. Everything
# must pass; there is no "allowed failures" list.
#
#   default  RelWithDebInfo, no instrumentation — the baseline suite
#   asan     AddressSanitizer across every target, full suite
#   tsan     ThreadSanitizer, `ctest -L concurrency` (the preset filters);
#            the concurrency suites list one ctest entry per test case in
#            every build, so this runs the same entries the default does
#   ubsan    UndefinedBehaviorSanitizer across every target, full suite
#
#   scripts/ci.sh                             # full matrix
#   HS_CI_PRESETS="default" scripts/ci.sh     # subset, e.g. a quick local gate
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=${HS_CI_PRESETS:-"default asan tsan ubsan"}

for preset in $PRESETS; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j
  echo "=== [$preset] test ==="
  ctest --preset "$preset"
done

# Fleet campaign smoke on the default build: an 8-habitat campaign must
# run and produce a byte-identical aggregate dump for threads=1 vs
# threads=hw (fleet_scale exits non-zero otherwise).
case " $PRESETS " in
  *" default "*)
    echo "=== [default] fleet_scale smoke (8 habitats) ==="
    ./build/bench/fleet_scale 8 1 42
    ;;
esac

# Reproduction smoke on the default build: icares_replay prints every
# Section V artifact from one 14-day mission, support_scenarios every
# Section VI behaviour from one live 14-day run, and quickstart (the
# README's first command) a 3-day mission and its analysis; each must exit
# 0. (Cascade campaign determinism is
# FleetDeterminism.CascadeCampaignIsByteIdentical* in ctest; the storm
# habitat's latencies are gated by latency_paths.)
case " $PRESETS " in
  *" default "*)
    echo "=== [default] icares_replay smoke (seed 42) ==="
    ./build/bench/icares_replay 42 > /dev/null
    echo "=== [default] support_scenarios smoke (seed 42) ==="
    ./build/bench/support_scenarios 42 > /dev/null
    echo "=== [default] quickstart smoke ==="
    ./build/examples/quickstart > /dev/null
    ;;
esac

# Latency SLO smoke on the default build: latency_paths replays the two
# instrumented scenarios, byte-checks serial-vs-hw trace dumps at full
# and 50% sampling, verifies sampled latencies match the full dump, and
# gates p50/p99 offload->ack and record->raise against the checked-in
# BENCH_latency.json (exit 1 on divergence, 2 on >10% p99 regression).
case " $PRESETS " in
  *" default "*)
    echo "=== [default] latency_paths SLO gate (seed 42, 2 days) ==="
    ./build/bench/latency_paths 42 2
    ;;
esac

# Perf smoke on the default build: a small synthetic run of the pipeline.
# perf_pipeline --large compares the derived outputs of threads=1 and
# threads=4 exactly and exits 1 on any divergence (docs/PERFORMANCE.md).
case " $PRESETS " in
  *" default "*)
    echo "=== [default] perf_pipeline smoke (240k synthetic records) ==="
    ./build/bench/perf_pipeline --large 240000 1
    echo "=== [default] perf_pipeline mission-mode smoke (seed 42) ==="
    # Full-analysis gate: serial and 4-thread runs must agree on every
    # artifact field and produce byte-identical metrics/trace dumps
    # (exit 1), and serial records/s may not fall more than 25% below
    # the checked-in BENCH_pipeline.json baseline (exit 2). The baseline
    # is a best of 2; gating the best of 5 keeps one slow rep on a
    # shared host from failing unchanged code.
    ./build/bench/perf_pipeline 42 4 5
    ;;
esac

echo "=== CI gate passed: $PRESETS ==="
