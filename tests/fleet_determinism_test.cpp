// Campaign-level determinism: the fleet aggregate dump is a pure
// function of the CampaignSpec. One habitat per parallel_for shard,
// summaries written into per-index slots only, Earth-side fold serial in
// habitat-index order — so per docs/CONCURRENCY.md the report must be
// byte-identical across thread counts and across independent runs (the
// in-process stand-in for two process runs; every run builds fresh
// runners, pools and aggregators from scratch). The campaign really
// shards habitats across threads, so every comparison here is between
// fresh runs; each case computes each (campaign, seed, threads) dump once.
//
// Registered under the `concurrency` and `fleet` ctest labels; the TSan
// preset picks it up via `concurrency`.
#include <gtest/gtest.h>

#include <string>

#include "fleet/fleet_runner.hpp"

namespace hs::fleet {
namespace {

/// A small but heterogeneous fleet: mixed crew sizes, beacon densities
/// and fault presets (including per-seed combined chaos), so the dump
/// covers alert counts, ack latencies, gaps and dark badges.
CampaignSpec campaign(std::uint64_t base_seed) {
  CampaignSpec spec;
  spec.name = "determinism";
  spec.habitats = 3;
  spec.base_seed = base_seed;
  spec.days = {1};
  spec.crew = {6, 5};
  spec.beacons = {27, 12};
  spec.faults = {"none", "battery-stress", "combined"};
  return spec;
}

std::string run_dump(std::uint64_t base_seed, unsigned threads) {
  CampaignOptions options;
  options.threads = threads;
  const auto report = run_campaign(campaign(base_seed), options);
  EXPECT_TRUE(report.has_value());
  return report.has_value() ? report->to_csv() : std::string();
}

TEST(FleetDeterminism, RepeatsAcrossRunsThreadsAndSeeds) {
  const std::string serial = run_dump(7, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_dump(7, 1));  // a fresh serial run repeats
  EXPECT_EQ(serial, run_dump(7, 4));
  const std::string serial42 = run_dump(42, 1);
  EXPECT_EQ(serial42, run_dump(42, 4));
  EXPECT_NE(serial42, serial);  // and the seed actually matters
}

/// The cascade axis round-robins every scenario preset across the fleet:
/// expansion (edge draws, repair races) and the day-boundary resource
/// coupling all happen per habitat, and must not perturb the
/// byte-identity of the aggregate dump across thread counts.
CampaignSpec cascade_campaign(std::uint64_t base_seed) {
  CampaignSpec spec;
  spec.name = "cascade-determinism";
  spec.habitats = 3;
  spec.base_seed = base_seed;
  spec.days = {2};
  spec.cascade = {"none", "power-storm", "generated"};
  return spec;
}

std::string run_cascade_dump(std::uint64_t base_seed, unsigned threads) {
  CampaignOptions options;
  options.threads = threads;
  const auto report = run_campaign(cascade_campaign(base_seed), options);
  EXPECT_TRUE(report.has_value());
  return report.has_value() ? report->to_csv() : std::string();
}

TEST(FleetDeterminism, CascadeCampaignIsByteIdenticalSeeds7And42) {
  const std::string serial7 = run_cascade_dump(7, 1);
  ASSERT_FALSE(serial7.empty());
  EXPECT_EQ(serial7, run_cascade_dump(7, 4));
  const std::string serial42 = run_cascade_dump(42, 1);
  ASSERT_FALSE(serial42.empty());
  EXPECT_EQ(serial42, run_cascade_dump(42, 4));
  EXPECT_NE(serial42, serial7);
}

/// The trace_sample axis bounds per-habitat trace memory by head-based
/// sampling instead of span-cap truncation. The keep/drop decision is a
/// pure function of the trace id, so a mixed-sampling campaign must stay
/// byte-identical across thread counts like every other axis.
CampaignSpec sampled_campaign(std::uint64_t base_seed) {
  CampaignSpec spec;
  spec.name = "sampled-determinism";
  spec.habitats = 3;
  spec.base_seed = base_seed;
  spec.days = {1};
  spec.faults = {"none", "battery-stress"};
  spec.trace_sample = {50, 100, 0};
  return spec;
}

std::string run_sampled_dump(std::uint64_t base_seed, unsigned threads) {
  CampaignOptions options;
  options.threads = threads;
  const auto report = run_campaign(sampled_campaign(base_seed), options);
  EXPECT_TRUE(report.has_value());
  return report.has_value() ? report->to_csv() : std::string();
}

TEST(FleetDeterminism, SampledCampaignIsByteIdenticalSeeds7And42) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{42}}) {
    const std::string serial = run_sampled_dump(seed, 1);
    const std::string parallel = run_sampled_dump(seed, 4);
    ASSERT_FALSE(serial.empty()) << "seed " << seed;
    EXPECT_EQ(serial, parallel) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hs::fleet
