// Unit contract of the fleet layer: the campaign DSL round-trips and
// rejects malformed specs, expansion assigns axes round-robin with
// decorrelated per-habitat seeds, the metrics roll-up and percentile
// helpers are exact, the Earth-side aggregator respects the 20-minute
// link and folds independently of arrival order, the mesh's incremental
// newest-chunk index answers health_snapshot exactly as the old
// merged-store scan did, and a single habitat runs end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/runner.hpp"
#include "fleet/fleet_runner.hpp"
#include "mesh/read_view.hpp"

namespace hs::fleet {
namespace {

// --- campaign DSL ------------------------------------------------------------

CampaignSpec mixed_spec() {
  CampaignSpec spec;
  spec.name = "mixed";
  spec.habitats = 7;
  spec.base_seed = 99;
  spec.days = {1, 2};
  spec.crew = {6, 5};
  spec.beacons = {27, 12, 20};
  spec.faults = {"none", "battery-stress", "mesh-partition"};
  spec.cascade = {"none", "power-storm"};
  spec.trace_sample = {100, 50};
  spec.replication = 2;
  return spec;
}

TEST(CampaignDsl, RoundTripsThroughText) {
  const CampaignSpec spec = mixed_spec();
  const auto parsed = CampaignSpec::parse(spec.to_string());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(*parsed, spec);
}

TEST(CampaignDsl, ParsesCommentsAndBlankLines) {
  const auto parsed = CampaignSpec::parse(
      "# a comment\n"
      "campaign smoke\n"
      "\n"
      "habitats 3\n"
      "faults none,combined\n");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->name, "smoke");
  EXPECT_EQ(parsed->habitats, 3);
  EXPECT_EQ(parsed->faults, (std::vector<std::string>{"none", "combined"}));
}

TEST(CampaignDsl, RejectsMalformedSpecs) {
  EXPECT_FALSE(CampaignSpec::parse("habitats 3\n").has_value());  // no name
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nhabitats zero\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\ncrew 4\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nbeacons 28\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nfaults nope\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\ncascade meteor-shower\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nmesh maybe\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nwarp 9\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\nhabitats 1 2\n").has_value());
  // trace_sample is a percentage list: out-of-range or non-numeric rejects.
  EXPECT_FALSE(CampaignSpec::parse("campaign x\ntrace_sample 101\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\ntrace_sample -1\n").has_value());
  EXPECT_FALSE(CampaignSpec::parse("campaign x\ntrace_sample half\n").has_value());
  // Counts and seeds are range-checked, never truncated or wrapped.
  const auto habitats = CampaignSpec::parse("campaign x\nhabitats 4294967297\n");
  ASSERT_FALSE(habitats.has_value()) << "habitats " << habitats->habitats;
  EXPECT_NE(habitats.error().message.find("line 2: bad count"), std::string::npos);
  const auto seed = CampaignSpec::parse("campaign x\nseed -1\n");
  ASSERT_FALSE(seed.has_value()) << "seed " << seed->base_seed;
  EXPECT_NE(seed.error().message.find("line 2: bad seed"), std::string::npos);
}

TEST(CampaignDsl, ExpandAssignsAxesRoundRobin) {
  const auto habitats = mixed_spec().expand();
  ASSERT_EQ(habitats.size(), 7u);
  for (std::size_t i = 0; i < habitats.size(); ++i) {
    EXPECT_EQ(habitats[i].index, i);
    EXPECT_EQ(habitats[i].days, i % 2 == 0 ? 1 : 2);
    EXPECT_EQ(habitats[i].crew, i % 2 == 0 ? 6 : 5);
    EXPECT_EQ(habitats[i].beacons, (std::array{27, 12, 20}[i % 3]));
    EXPECT_EQ(habitats[i].fault_preset,
              (std::array{"none", "battery-stress", "mesh-partition"}[i % 3]));
    EXPECT_EQ(habitats[i].cascade, (std::array{"none", "power-storm"}[i % 2]));
    EXPECT_EQ(habitats[i].trace_sample, i % 2 == 0 ? 100 : 50);
    EXPECT_EQ(habitats[i].replication, 2);
  }
}

TEST(CampaignDsl, HabitatSeedsAreDecorrelatedAndPure) {
  const auto habitats = mixed_spec().expand();
  std::map<std::uint64_t, int> seen;
  for (const auto& h : habitats) {
    EXPECT_EQ(h.seed, habitat_seed(99, h.index));  // pure function of (base, index)
    seen[h.seed] += 1;
  }
  EXPECT_EQ(seen.size(), habitats.size());  // no collisions
  EXPECT_NE(habitat_seed(99, 0), habitat_seed(100, 0));
}

TEST(CampaignDsl, FaultPresetsResolve) {
  for (const char* name : {"none", "day9-badge-swap", "battery-stress", "storage-stress",
                           "infrastructure-stress", "clock-anomalies", "mesh-partition",
                           "combined"}) {
    EXPECT_TRUE(fault_preset(name, 7).has_value()) << name;
  }
  EXPECT_FALSE(fault_preset("gremlins", 7).has_value());
}

TEST(CampaignDsl, MissionConfigEncodesCrewAndInstrumentation) {
  HabitatSpec five;
  five.crew = 5;
  five.days = 1;
  five.beacons = 12;
  five.replication = 2;
  const auto config = make_mission_config(five);
  EXPECT_EQ(config.script.badge_start_day, 1);  // 1-day missions must record
  EXPECT_TRUE(config.script.c_death_enabled);
  EXPECT_EQ(config.script.c_death_day, 1);
  EXPECT_EQ(config.script.c_death_time, 0);
  EXPECT_EQ(config.beacon_count, 12);
  EXPECT_TRUE(config.mesh.enabled);
  EXPECT_EQ(config.mesh.replication_factor, 2);
  EXPECT_TRUE(config.collect_from_mesh);
  EXPECT_EQ(config.trace_keep_millionths, 1'000'000U);  // default: keep everything

  HabitatSpec six;
  six.crew = 6;
  EXPECT_FALSE(make_mission_config(six).script.c_death_enabled);

  HabitatSpec sampled;
  sampled.trace_sample = 50;
  EXPECT_EQ(make_mission_config(sampled).trace_keep_millionths, 500'000U);
}

TEST(CampaignDsl, CascadeScenarioAppendsExpandedFaults) {
  // The cascade's device faults ride the same plan as the preset's, and
  // the whole mission config stays a pure function of the habitat spec.
  HabitatSpec quiet;
  EXPECT_TRUE(make_mission_config(quiet).fault_plan.empty());

  HabitatSpec stormy;
  stormy.cascade = "power-storm";
  const auto config = make_mission_config(stormy);
  EXPECT_FALSE(config.fault_plan.empty());
  EXPECT_EQ(config.fault_plan.to_string(), make_mission_config(stormy).fault_plan.to_string());

  HabitatSpec both = stormy;
  both.fault_preset = "battery-stress";
  const auto preset_count = make_mission_config(HabitatSpec{.fault_preset = "battery-stress"})
                                .fault_plan.faults()
                                .size();
  EXPECT_EQ(make_mission_config(both).fault_plan.faults().size(),
            preset_count + config.fault_plan.faults().size());
}

// --- metrics roll-up ---------------------------------------------------------

obs::MetricsSnapshot snapshot_of(const std::vector<obs::SnapshotEntry>& entries) {
  obs::MetricsSnapshot snap;
  snap.entries = entries;
  return snap;
}

TEST(MetricsRollup, SumsCountersGaugesAndHistograms) {
  auto a = snapshot_of({{"alerts", 'c', 3, 0.0, {}, {}},
                        {"depth", 'g', 0, 2.5, {}, {}},
                        {"lat", 'h', 4, 10.0, {1.0, 5.0}, {1, 2, 1}}});
  const auto b = snapshot_of({{"alerts", 'c', 2, 0.0, {}, {}},
                              {"depth", 'g', 0, 1.5, {}, {}},
                              {"lat", 'h', 1, 7.0, {1.0, 5.0}, {0, 0, 1}}});
  ASSERT_TRUE(a.accumulate(b).ok());
  EXPECT_EQ(a.find("alerts")->count, 5u);
  EXPECT_EQ(a.find("depth")->value, 4.0);
  EXPECT_EQ(a.find("lat")->count, 5u);
  EXPECT_EQ(a.find("lat")->value, 17.0);
  EXPECT_EQ(a.find("lat")->buckets, (std::vector<std::uint64_t>{1, 2, 2}));
}

TEST(MetricsRollup, KeepsNamesPresentOnOnlyOneSide) {
  auto a = snapshot_of({{"alpha", 'c', 1, 0.0, {}, {}}, {"mid", 'c', 2, 0.0, {}, {}}});
  const auto b = snapshot_of({{"mid", 'c', 3, 0.0, {}, {}}, {"zeta", 'c', 4, 0.0, {}, {}}});
  ASSERT_TRUE(a.accumulate(b).ok());
  ASSERT_EQ(a.entries.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.entries.begin(), a.entries.end(),
                             [](const auto& x, const auto& y) { return x.name < y.name; }));
  EXPECT_EQ(a.find("alpha")->count, 1u);
  EXPECT_EQ(a.find("mid")->count, 5u);
  EXPECT_EQ(a.find("zeta")->count, 4u);
}

TEST(MetricsRollup, RefusesMismatchedKindsAndBoundsUntouched) {
  const auto original = snapshot_of({{"x", 'c', 1, 0.0, {}, {}}});
  auto a = original;
  EXPECT_FALSE(a.accumulate(snapshot_of({{"x", 'g', 0, 1.0, {}, {}}})).ok());
  EXPECT_EQ(a, original);  // refused fold leaves the accumulator intact

  auto h = snapshot_of({{"lat", 'h', 1, 1.0, {1.0}, {1, 0}}});
  const auto h2 = snapshot_of({{"lat", 'h', 1, 1.0, {2.0}, {1, 0}}});
  EXPECT_FALSE(h.accumulate(h2).ok());
}

// --- percentiles -------------------------------------------------------------

TEST(DistStatsTest, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const DistStats d = dist_stats(std::move(samples));
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.p50, 50.0);
  EXPECT_EQ(d.p90, 90.0);
  EXPECT_EQ(d.p99, 99.0);
  EXPECT_EQ(d.max, 100.0);

  const DistStats single = dist_stats({7.0});
  EXPECT_EQ(single.p50, 7.0);
  EXPECT_EQ(single.p99, 7.0);

  EXPECT_EQ(dist_stats({}).count, 0u);
}

// --- Earth-side aggregator ---------------------------------------------------

HabitatSummary synthetic_summary(std::size_t index, std::uint64_t alerts_battery,
                                 std::uint64_t dark) {
  HabitatSummary s;
  s.index = index;
  s.seed = habitat_seed(1, index);
  s.days = 1;
  s.finished_at = kDay;
  s.alert_counts[static_cast<std::size_t>(support::AlertKind::kBatteryLow)] = alerts_battery;
  s.records_written = 100 * (index + 1);
  s.chunks_offloaded = 10;
  s.chunks_acked = 9;
  s.dark_badges = dark;
  s.ack_latencies_s = {1.0 + static_cast<double>(index)};
  s.offload_gaps_s = {120.0};
  s.metrics.entries.push_back({"badge.sd_records_written", 'c', 100 * (index + 1), 0.0, {}, {}});
  return s;
}

TEST(Aggregator, LinkDelaysSummariesTwentyMinutes) {
  FleetAggregator agg;
  agg.submit(kDay, synthetic_summary(0, 1, 0));
  EXPECT_EQ(agg.pump(kDay + minutes(19)), 0u);  // still in flight
  EXPECT_EQ(agg.in_flight(), 1u);
  EXPECT_EQ(agg.pump(kDay + minutes(20)), 1u);
  EXPECT_EQ(agg.received(), 1u);
  EXPECT_EQ(agg.in_flight(), 0u);
}

TEST(Aggregator, ReportFoldsIndependentOfArrivalOrder) {
  FleetAggregator in_order;
  FleetAggregator reversed;
  for (std::size_t i = 0; i < 4; ++i) {
    in_order.submit(kDay, synthetic_summary(i, i, i % 2));
    reversed.submit(kDay, synthetic_summary(3 - i, 3 - i, (3 - i) % 2));
  }
  (void)in_order.pump(2 * kDay);
  (void)reversed.pump(2 * kDay);
  EXPECT_EQ(in_order.report("perm").to_csv(), reversed.report("perm").to_csv());
}

TEST(Aggregator, ReportAggregatesAcrossHabitats) {
  FleetAggregator agg;
  agg.submit(kDay, synthetic_summary(0, 2, 0));
  agg.submit(kDay, synthetic_summary(1, 3, 2));
  (void)agg.pump(2 * kDay);
  const FleetReport report = agg.report("two");
  EXPECT_EQ(report.habitats, 2u);
  EXPECT_EQ(report.habitat_days, 2u);
  EXPECT_EQ(report.alerts_total, 5u);
  EXPECT_EQ(report.alert_counts[static_cast<std::size_t>(support::AlertKind::kBatteryLow)], 5u);
  EXPECT_EQ(report.records_written, 300u);
  EXPECT_EQ(report.chunks_acked, 18u);
  EXPECT_EQ(report.dark_badges, 2u);
  EXPECT_EQ(report.habitats_with_dark, 1u);
  EXPECT_EQ(report.ack_latency.count, 2u);
  EXPECT_EQ(report.ack_latency.max, 2.0);
  EXPECT_EQ(report.metrics.find("badge.sd_records_written")->count, 300u);
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("campaign,name,two"), std::string::npos);
  EXPECT_NE(csv.find("alerts,battery-low.count,5"), std::string::npos);
  EXPECT_NE(csv.find("metrics,badge.sd_records_written,300"), std::string::npos);
}

// --- health index vs merged-store scan ---------------------------------------

/// The pre-index implementation of health_snapshot, kept as the test
/// oracle: scan every chunk in the merged store, keep each badge's newest
/// record chunk, decode its piggybacked vitals.
std::vector<support::BadgeHealth> merged_store_health(const mesh::MeshNetwork& mesh, SimTime now,
                                                      SimDuration stale_after) {
  std::map<io::BadgeId, const mesh::MeshChunk*> newest;
  for (const auto& [key, chunk] : mesh.merged_store()) {
    if (chunk->kind != mesh::ChunkKind::kRecords) continue;
    newest[static_cast<io::BadgeId>(key.origin)] = chunk;  // ascending seq: last wins
  }
  std::vector<support::BadgeHealth> out;
  for (const auto& [badge, chunk] : newest) {
    mesh::OffloadVitals vitals;
    std::vector<std::uint8_t> binlog;
    if (!decode_records_payload(chunk->payload->bytes, vitals, binlog)) continue;
    support::BadgeHealth h;
    h.t = chunk->created_at;
    h.badge = badge;
    h.battery_fraction = vitals.battery_fraction;
    h.active = vitals.active && now - chunk->created_at <= stale_after;
    h.docked = vitals.docked;
    h.worn = vitals.worn;
    h.source_origin = chunk->key.origin;
    h.source_seq = chunk->key.seq;
    out.push_back(h);
  }
  return out;
}

void expect_same_health(const std::vector<support::BadgeHealth>& a,
                        const std::vector<support::BadgeHealth>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].badge, b[i].badge);
    EXPECT_EQ(a[i].battery_fraction, b[i].battery_fraction);
    EXPECT_EQ(a[i].active, b[i].active);
    EXPECT_EQ(a[i].docked, b[i].docked);
    EXPECT_EQ(a[i].worn, b[i].worn);
    EXPECT_EQ(a[i].source_origin, b[i].source_origin);
    EXPECT_EQ(a[i].source_seq, b[i].source_seq);
  }
}

TEST(HealthIndex, MatchesMergedStoreScanUnderFaults) {
  // Node deaths wipe stores, so some newest chunks lose every replica and
  // the index must fall back to older surviving ones — the case where a
  // naive "last offload per badge" cache would diverge from the scan.
  HabitatSpec spec;
  spec.seed = 7;
  spec.days = 1;
  spec.fault_preset = "infrastructure-stress";
  core::MissionRunner runner(make_mission_config(spec));
  (void)runner.run_days(spec.days);
  const mesh::MeshNetwork* mesh = runner.mesh();
  ASSERT_NE(mesh, nullptr);
  const mesh::MeshReadView view(*mesh);
  for (const SimTime now : {hours(12), hours(20), kDay, kDay + hours(1)}) {
    expect_same_health(view.health_snapshot(now, minutes(10)),
                       merged_store_health(*mesh, now, minutes(10)));
  }
}

// --- one habitat end to end --------------------------------------------------

TEST(RunHabitat, ProducesAPopulatedSummary) {
  HabitatSpec spec;
  spec.index = 3;
  spec.seed = habitat_seed(42, 3);
  spec.days = 1;
  spec.crew = 5;
  spec.fault_preset = "battery-stress";
  const HabitatSummary summary = run_habitat(spec);
  EXPECT_EQ(summary.index, 3u);
  EXPECT_EQ(summary.finished_at, kDay);
  // The report's record count comes from the badge.sd_records_written
  // counter; pin it to the records a twin run's cards actually hold.
  // Exactly one record predates the counter: add_reference_badge()
  // undocks the reference badge, logging a WearEvent, before
  // MissionRunner wires the cards to it. Counting that record would move
  // the fleet report's bytes, so the offset is pinned here instead.
  constexpr std::uint64_t kRecordsBeforeWiring = 1;
  core::MissionRunner twin(make_mission_config(spec));
  const core::Dataset data = twin.run_days(spec.days);
  std::uint64_t on_cards = 0;
  for (const core::BadgeLog& log : data.logs) {
    on_cards += log.card.record_count() + log.card.truncated_records();
  }
  EXPECT_GT(on_cards, kRecordsBeforeWiring);
  EXPECT_EQ(summary.records_written + kRecordsBeforeWiring, on_cards);
  EXPECT_GT(summary.chunks_offloaded, 0u);
  EXPECT_LE(summary.chunks_acked, summary.chunks_offloaded);
  EXPECT_EQ(summary.ack_latencies_s.size(), summary.chunks_acked);
  EXPECT_FALSE(summary.offload_gaps_s.empty());
  EXPECT_NE(summary.metrics.find("mesh.chunks_offloaded"), nullptr);
}

}  // namespace
}  // namespace hs::fleet
