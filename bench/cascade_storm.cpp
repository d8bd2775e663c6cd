// cascade_storm: the cascade scenario engine's throughput and
// determinism harness.
//
//   cascade_storm [habitats=16] [days=8] [seed=42]
//
// Phase 1 runs a storm campaign — every habitat under a cascade scenario
// (round-robin power-storm / generated, mixed fault presets riding
// along) — twice: threads=1 (the serial reference) and threads=hardware,
// timing each pass and printing habitats/sec plus fleet alerts/sec. The
// two campaign aggregate dumps must be byte-identical (the
// docs/CONCURRENCY.md contract: cascade expansion is a pure function of
// (seed, graph, plan), so thread count may change wall-clock only); any
// divergence prints the first differing line and exits non-zero, which
// is what lets scripts/ci.sh run a small storm as a determinism smoke.
//
// Phase 2 runs one instrumented storm habitat and walks the causal trace
// (obs::TraceIndex): for every raised alert with recorded evidence it
// measures record -> raise latency — how long the support system took to
// notice what the cascade did to the sensor fleet.
//
// Every argument is one whole number (hs::parse_number); a malformed or
// out-of-range one exits 1, naming it, before any campaign runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "fleet/fleet_runner.hpp"
#include "mesh/read_view.hpp"
#include "obs/trace_query.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hs;
using bench::report_diff;
using bench::seconds_since;

double gauge_value(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0.0 : e->value;
}

}  // namespace

int main(int argc, char** argv) {
  const int habitats = argc > 1 ? bench::parse_arg(argv, 1, "habitats", 1) : 16;
  const int days = argc > 2 ? bench::parse_arg(argv, 2, "days", 1) : 8;
  const std::uint64_t seed = argc > 3 ? bench::parse_arg<std::uint64_t>(argv, 3, "seed", 0) : 42;

  fleet::CampaignSpec spec;
  spec.name = "cascade-storm";
  spec.habitats = habitats;
  spec.base_seed = seed;
  spec.days = {days};
  spec.faults = {"none", "battery-stress"};
  spec.cascade = {"power-storm", "generated"};

  const unsigned hw = util::resolve_threads(0);
  std::printf("# cascade_storm: %d habitats x %d day(s), seed %llu, hw threads %u\n", habitats,
              days, static_cast<unsigned long long>(seed), hw);
  std::printf("%-12s %10s %14s %14s\n", "threads", "wall_s", "habitats/s", "alerts/s");

  std::string dumps[2];
  for (int pass = 0; pass < 2; ++pass) {
    fleet::CampaignOptions options;
    options.threads = pass == 0 ? 1 : hw;
    const auto start = std::chrono::steady_clock::now();
    auto result = fleet::run_campaign(spec, options);
    const double wall = seconds_since(start);
    if (!result.has_value()) {
      std::fprintf(stderr, "cascade_storm: %s\n", result.error().message.c_str());
      return 1;
    }
    dumps[pass] = result->to_csv();
    std::printf("%-12u %10.2f %14.2f %14.1f\n", options.threads, wall,
                static_cast<double>(habitats) / wall,
                static_cast<double>(result->alerts_total) / wall);
    if (pass == 1) {
      std::printf("# fleet: %llu alerts (%llu shortage), cascade activations %.0f, "
                  "dependents %.0f, repairs %.0f\n",
                  static_cast<unsigned long long>(result->alerts_total),
                  static_cast<unsigned long long>(
                      result->alert_counts[static_cast<std::size_t>(
                          support::AlertKind::kResourceShortage)]),
                  gauge_value(result->metrics, "scenario.cascade_activations"),
                  gauge_value(result->metrics, "scenario.cascade_dependents"),
                  gauge_value(result->metrics, "scenario.cascade_repairs"));
    }
  }

  if (dumps[0] != dumps[1]) {
    std::fprintf(stderr,
                 "cascade_storm: campaign dump differs between threads=1 and threads=%u\n", hw);
    report_diff(dumps[0], dumps[1]);
    return 1;
  }
  std::printf("# campaign dump byte-identical across thread counts (%zu bytes)\n",
              dumps[0].size());

  // Phase 2: one instrumented storm habitat; walk the causal trace for
  // record -> raise latencies (run_habitat's wiring, with the runner's
  // tracer kept in hand).
  fleet::HabitatSpec storm;
  storm.seed = seed;
  storm.days = days;
  storm.cascade = "power-storm";
  core::MissionRunner runner(fleet::make_mission_config(storm));
  support::SupportSystem support;
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  const auto scen = scenario::scenario_preset(storm.cascade, storm.seed);
  const auto expanded = scenario::expand_scenario(*scen, storm.seed);
  if (!expanded.has_value()) {
    std::fprintf(stderr, "cascade_storm: %s\n", expanded.error().message.c_str());
    return 1;
  }
  runner.add_observer([&support, &expanded](const core::MissionView& view) {
    if (view.now == 0 || view.now % kDay != 0) return;
    expanded->coupling.apply_day(mission_day(view.now - 1), support.resources());
    support.end_of_day(view.now);
  });
  runner.add_observer([&support](const core::MissionView& view) {
    if (view.mesh == nullptr || view.now % minutes(5) != 0 || view.now == 0) return;
    const mesh::MeshReadView mesh_view(*view.mesh);
    for (const auto& health : mesh_view.health_snapshot(view.now, minutes(10))) {
      support.ingest_badge(health);
    }
  });
  (void)runner.run_days(storm.days);
  std::printf("# storm habitat: %zu alerts raised\n", support.alerts().size());

  // record -> raise per evidenced alert: the shared query-layer readout
  // (bench/latency_paths regression-guards the same numbers).
  const obs::TraceIndex index(runner.tracer().spans());
  std::vector<double> latencies_s = index.path_latencies().record_to_raise_s;
  if (latencies_s.empty()) {
    std::printf("# record->raise latency: no alerts with recorded evidence\n");
  } else {
    std::sort(latencies_s.begin(), latencies_s.end());
    double sum = 0.0;
    for (const double v : latencies_s) sum += v;
    std::printf("# record->raise latency over %zu evidenced alerts: "
                "mean %.1fs, p50 %.1fs, max %.1fs\n",
                latencies_s.size(), sum / static_cast<double>(latencies_s.size()),
                latencies_s[latencies_s.size() / 2], latencies_s.back());
  }
  return 0;
}
