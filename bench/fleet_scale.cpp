// fleet_scale: the campaign-mode throughput and determinism harness.
//
//   fleet_scale [--analyze] [habitats=200] [days=1] [seed=42] [dump.csv]
//
// Runs one mixed campaign (crew sizes 6 and 5, three beacon densities,
// fault presets from calm to combined chaos) twice — threads=1 (the
// serial reference) and threads=hardware — timing each pass, and prints
// habitats/sec plus aggregate records/sec for both. The two campaign
// aggregate dumps must be byte-identical (the docs/CONCURRENCY.md
// contract lifted to fleet level); any divergence prints the first
// differing line and exits 1, so CI can run a small fleet as a
// determinism smoke (scripts/ci.sh runs 8 habitats). An optional fourth
// argument writes the (verified-identical) campaign dump to a file.
//
// --analyze runs each habitat's offline analysis pipeline too
// (CampaignOptions::analyze), so the same two passes also time the
// analysis and byte-compare its rolled-up pipeline.* metrics and
// records_analyzed.
//
// Mission-throughput gate: when the working directory holds
// BENCH_mission.json and the run's habitats, days and seed match the ones
// it records, a plain (no --analyze) run exits 2 if the serial pass's
// habitat-days/s falls below 0.75 x the recorded median. The baseline is
// read before any campaign runs: a value in it that is not a number
// exits 1, naming the key, and so does a malformed argument, naming the
// argument (bench::parse_arg).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "fleet/fleet_runner.hpp"
#include "util/thread_pool.hpp"

using namespace hs;
using bench::baseline_rate;
using bench::gate_on_baseline;
using bench::parse_arg;
using bench::report_diff;
using bench::seconds_since;

constexpr const char* kBaselinePath = "BENCH_mission.json";

int main(int argc, char** argv) {
  const bool analyze = argc > 1 && std::string(argv[1]) == "--analyze";
  const int first = analyze ? 2 : 1;  // argv index of habitats
  const int habitats = argc > first ? parse_arg(argv, first, "habitats", 1) : 200;
  const int days = argc > first + 1 ? parse_arg(argv, first + 1, "days", 1) : 1;
  const std::uint64_t seed =
      argc > first + 2 ? parse_arg<std::uint64_t>(argv, first + 2, "seed", 0) : 42;
  const char* dump_path = argc > first + 3 ? argv[first + 3] : nullptr;
  // A plain run is gated; read the baseline before the campaign runs.
  const double base_rate =
      analyze ? 0.0
              : baseline_rate(kBaselinePath, "serial_habitat_days_per_s",
                              {{"habitats", habitats}, {"days", days},
                               {"seed", static_cast<double>(seed)}},
                              std::to_string(habitats) + " habitats x " + std::to_string(days) +
                                  " day(s), seed " + std::to_string(seed));

  fleet::CampaignSpec spec;
  spec.name = "fleet-scale";
  spec.habitats = habitats;
  spec.base_seed = seed;
  spec.days = {days};
  spec.crew = {6, 5, 6};
  spec.beacons = {27, 12, 20};
  spec.faults = {"none", "battery-stress", "mesh-partition", "none", "combined"};

  const unsigned hw = util::resolve_threads(0);
  std::printf("# fleet_scale: %d habitats x %d day(s)%s, seed %llu, hw threads %u\n", habitats,
              days, analyze ? " with analysis" : "", static_cast<unsigned long long>(seed), hw);
  std::printf("%-12s %10s %14s %18s\n", "threads", "wall_s", "habitats/s", "agg_records/s");

  std::string dumps[2];
  double serial_wall = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    fleet::CampaignOptions options;
    options.threads = pass == 0 ? 1 : hw;
    options.analyze = analyze;
    const auto start = std::chrono::steady_clock::now();
    auto result = fleet::run_campaign(spec, options);
    const double wall = seconds_since(start);
    if (!result.has_value()) {
      std::fprintf(stderr, "fleet_scale: %s\n", result.error().message.c_str());
      return 1;
    }
    dumps[pass] = result->to_csv();
    if (pass == 0) serial_wall = wall;
    std::printf("%-12u %10.2f %14.2f %18.0f\n", options.threads, wall,
                static_cast<double>(habitats) / wall,
                static_cast<double>(result->records_written) / wall);
    if (pass == 1) {
      std::printf("# fleet: %zu habitats, %llu alerts, %llu dark badges, ack p99 %.1fs\n",
                  result->habitats, static_cast<unsigned long long>(result->alerts_total),
                  static_cast<unsigned long long>(result->dark_badges), result->ack_latency.p99);
      if (analyze) {
        std::printf("# analyzed %llu records\n",
                    static_cast<unsigned long long>(result->records_analyzed));
      }
    }
  }

  if (dumps[0] != dumps[1]) {
    std::fprintf(stderr, "fleet_scale: campaign dump differs between threads=1 and threads=%u\n",
                 hw);
    report_diff(dumps[0], dumps[1]);
    return 1;
  }
  std::printf("# campaign dump byte-identical across thread counts (%zu bytes)\n",
              dumps[0].size());

  if (dump_path != nullptr) {
    std::FILE* out = std::fopen(dump_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "fleet_scale: cannot write %s\n", dump_path);
      return 1;
    }
    std::fwrite(dumps[0].data(), 1, dumps[0].size(), out);
    std::fclose(out);
  }
  // The baseline times the campaign without analysis; base_rate is 0 then.
  return gate_on_baseline(base_rate, static_cast<double>(habitats) * days / serial_wall,
                          kBaselinePath, "habitat-days/s", "mission throughput");
}
