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
// exits 1, naming the key, and a malformed argument exits 1 with usage.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "fleet/fleet_runner.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace hs;
using bench::find_number;
using bench::report_diff;
using bench::seconds_since;

namespace {

constexpr const char* kBaselinePath = "BENCH_mission.json";
constexpr double kGateFloor = 0.75;

/// The serial habitat-days/s that the checked-in baseline records for
/// this habitats/days/seed, or 0 when there is none (no file, or another
/// run recorded). Exits 1 when a value in the file is malformed.
double baseline_rate(int habitats, int days, std::uint64_t seed) {
  std::ifstream in(kBaselinePath, std::ios::binary);
  if (!in) {
    std::printf("# no %s in the working directory; not gating\n", kBaselinePath);
    return 0.0;
  }
  std::ostringstream text;
  text << in.rdbuf();
  double base_habitats = 0.0;
  double base_days = 0.0;
  double base_seed = -1.0;
  double base_rate = 0.0;
  if (!find_number(text.str(), "habitats", 0, base_habitats, kBaselinePath) ||
      !find_number(text.str(), "days", 0, base_days, kBaselinePath) ||
      !find_number(text.str(), "seed", 0, base_seed, kBaselinePath) ||
      !find_number(text.str(), "serial_habitat_days_per_s", 0, base_rate, kBaselinePath) ||
      base_habitats != habitats || base_days != days || base_seed != static_cast<double>(seed) ||
      base_rate <= 0.0) {
    std::printf("# %s has no baseline for %d habitats x %d day(s), seed %llu; not gating\n",
                kBaselinePath, habitats, days, static_cast<unsigned long long>(seed));
    return 0.0;
  }
  return base_rate;
}

/// Gate the serial pass's habitat-days/s against the baseline rate.
/// Returns 2 below the floor, 0 otherwise (also when base_rate is 0).
int gate_on_baseline(double base_rate, double serial_rate) {
  if (base_rate <= 0.0) return 0;
  const double ratio = serial_rate / base_rate;
  std::printf("# serial %.3f habitat-days/s vs %s %.3f: %.2fx (floor %.2fx)\n", serial_rate,
              kBaselinePath, base_rate, ratio, kGateFloor);
  if (ratio < kGateFloor) {
    std::printf("# REGRESSION: serial mission throughput more than 25%% below the baseline\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool analyze = false;
  if (argc > 1 && std::string(argv[1]) == "--analyze") {
    analyze = true;
    --argc;
    ++argv;
  }
  int habitats = 200;
  int days = 1;
  std::uint64_t seed = 42;
  const char* dump_path = argc > 4 ? argv[4] : nullptr;
  if ((argc > 1 && !parse_number(argv[1], habitats)) ||
      (argc > 2 && !parse_number(argv[2], days)) || (argc > 3 && !parse_number(argv[3], seed)) ||
      habitats < 1 || days < 1) {
    std::fprintf(stderr,
                 "usage: fleet_scale [--analyze] [habitats>=1] [days>=1] [seed] [dump.csv]\n");
    return 1;
  }
  // A plain run is gated; read the baseline before the campaign runs.
  const double base_rate = analyze ? 0.0 : baseline_rate(habitats, days, seed);

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
  return gate_on_baseline(base_rate, static_cast<double>(habitats) * days / serial_wall);
}
