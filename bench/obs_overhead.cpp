// Observability overhead harness: wall-clock cost of the hs::obs layer.
//
// Times the canonical workload — a full 14-day ICAres-1 mission (runner
// instrumentation live) plus the complete analysis pipeline with its
// pipeline.* metrics folding — and prints per-rep and best-of timings
// together with the build's HS_OBS_ENABLED state. The on/off comparison
// is across builds: the gate is compile-time by design, so the "off"
// configuration has literally no instrumentation instructions to time.
//
//   cmake -B build       -S . && cmake --build build -j
//   cmake -B build-noobs -S . -DHS_OBS_ENABLED=OFF && cmake --build build-noobs -j
//   ./build/bench/obs_overhead 42 5
//   ./build-noobs/bench/obs_overhead 42 5
//
// docs/OBSERVABILITY.md records the measured delta; the budget is < 3%.
//
// Usage: obs_overhead [seed] [reps]
//   seed  mission seed (default 42)
//   reps  timed repetitions, best-of (default 5)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "obs/obs.hpp"

namespace {

using hs::bench::seconds_since;

/// One full instrumented workload: mission, pipeline, dump. Returns
/// (seconds, dump size) — the dump size is printed so the work cannot be
/// elided and so on/off builds show what the layer actually produced.
std::pair<double, std::size_t> run_workload(std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  hs::core::MissionConfig config;
  config.seed = seed;
  config.mesh.enabled = true;  // exercise the mesh hot paths too
  hs::core::MissionRunner runner(config);
  const hs::core::Dataset data = runner.run();
  hs::core::PipelineOptions opts;
  opts.metrics = &runner.metrics();
  opts.tracer = &runner.tracer();
  const hs::core::AnalysisPipeline pipeline(data, opts);
  (void)pipeline.artifacts();
  const hs::core::MissionReport report = runner.report();
  return {seconds_since(t0),
          report.metrics_csv.size() + report.flight_log_csv.size() + report.trace_csv.size()};
}

/// Hot-path micro-costs, per operation. A volatile sink keeps the loop
/// honest; the registry lookups happen once, as on the real hot paths.
void micro_costs() {
  hs::obs::Registry reg;
  hs::obs::Counter& c = reg.counter("bench.counter");
  hs::obs::Histogram& h = reg.histogram("bench.histogram", {10.0, 100.0, 1000.0});

  // The empty asm is a compiler barrier: without it the whole loop folds
  // into one addition and the "cost" prints as 0.
  constexpr int kIncs = 50'000'000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIncs; ++i) {
    c.inc();
    asm volatile("" ::: "memory");
  }
  const double inc_ns = seconds_since(t0) * 1e9 / kIncs;

  constexpr int kObs = 10'000'000;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kObs; ++i) {
    h.observe(static_cast<double>(i % 2000));
    asm volatile("" ::: "memory");
  }
  const double obs_ns = seconds_since(t0) * 1e9 / kObs;

  // Span emission: id mix + struct push into pre-reserved storage. Far
  // heavier than inc(), but it runs per mission event, not per record.
  hs::obs::Tracer tracer(42);
  const hs::obs::TraceId trace = tracer.chunk_trace(0, 0);
  constexpr int kEmits = 5'000'000;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEmits; ++i) {
    tracer.emit(trace, hs::obs::SpanKind::kChunkOffload, hs::obs::Subsys::kMesh, i, i, 0, 0, i);
    asm volatile("" ::: "memory");
  }
  const double emit_ns = seconds_since(t0) * 1e9 / kEmits;

  volatile std::uint64_t sink = c.value() + h.count() + tracer.total_emitted();
  (void)sink;
  std::printf("counter.inc():        %7.2f ns/op (%d ops)\n", inc_ns, kIncs);
  std::printf("histogram.observe():  %7.2f ns/op (%d ops)\n", obs_ns, kObs);
  std::printf("tracer.emit():        %7.2f ns/op (%d ops, cap at %zu spans)\n", emit_ns, kEmits,
              tracer.max_spans());
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;

  std::printf("# hs::obs overhead harness — HS_OBS_ENABLED=%d, seed %llu, %d reps\n",
              HS_OBS_ENABLED, static_cast<unsigned long long>(seed), reps);
  std::printf(
      "# workload: 14-day mission (mesh on) + full analysis pipeline + metrics/trace dumps\n");

  double best = 0.0;
  std::size_t dump_bytes = 0;
  for (int r = 0; r < reps; ++r) {
    const auto [seconds, bytes] = run_workload(seed);
    dump_bytes = bytes;
    if (r == 0 || seconds < best) best = seconds;
    std::printf("rep %d: %.3f s\n", r, seconds);
  }
  std::printf("best:  %.3f s   (dump %zu bytes)\n", best, dump_bytes);
  std::printf("\n# hot-path micro-costs (this build)\n");
  micro_costs();
  std::printf("\nCompare `best` against a -DHS_OBS_ENABLED=OFF build of this binary;\n");
  std::printf("the delta is the layer's whole-mission overhead (budget: < 3%%).\n");
  return 0;
}
