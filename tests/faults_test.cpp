// Fault-injection suite: the FaultPlan DSL, the injector's device-level
// effects, graceful degradation through the analysis pipeline, and the
// support system's infrastructure alerts.
//
// The heavy lifting happens once: a full 14-day mission under an
// "exercise-everything" plan containing one fault of every kind (shared
// fixture, core_test pattern). Every behavioural test then reads from
// that single dataset. docs/RESILIENCE.md documents the per-kind
// degradation contracts these tests pin down.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "faults/fault_plan.hpp"
#include "support/system.hpp"

namespace hs::faults {
namespace {

// --- DSL round-trips (no mission needed) -----------------------------------

TEST(FaultPlanDsl, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(FaultKind::kBatteryDeath), "battery-death");
  EXPECT_STREQ(kind_name(FaultKind::kSdWriteFailure), "sd-write-failure");
  EXPECT_STREQ(kind_name(FaultKind::kBinlogTruncation), "binlog-truncation");
  EXPECT_STREQ(kind_name(FaultKind::kBeaconOutage), "beacon-outage");
  EXPECT_STREQ(kind_name(FaultKind::kRadioDegradation), "radio-degradation");
  EXPECT_STREQ(kind_name(FaultKind::kClockStep), "clock-step");
  EXPECT_STREQ(kind_name(FaultKind::kBadgeSwap), "badge-swap");
  EXPECT_STREQ(kind_name(FaultKind::kPartition), "partition");
}

TEST(FaultPlanDsl, PresetsRoundTripThroughTheDsl) {
  const FaultPlan presets[] = {
      FaultPlan::day9_badge_swap(),        FaultPlan::battery_stress(),
      FaultPlan::storage_stress(),         FaultPlan::infrastructure_stress(),
      FaultPlan::clock_anomalies(),        FaultPlan::mesh_partition(),
      FaultPlan::combined(123),
  };
  for (const FaultPlan& plan : presets) {
    const auto parsed = FaultPlan::parse(plan.to_string());
    ASSERT_TRUE(parsed.has_value()) << plan.name() << ": " << parsed.error().message;
    EXPECT_EQ(*parsed, plan) << plan.name();
  }
}

TEST(FaultPlanDsl, CombinedIsDeterministicPerSeed) {
  EXPECT_EQ(FaultPlan::combined(7), FaultPlan::combined(7));
  EXPECT_EQ(FaultPlan::combined(7).to_string(), FaultPlan::combined(7).to_string());
  EXPECT_NE(FaultPlan::combined(7).to_string(), FaultPlan::combined(8).to_string());
}

TEST(FaultPlanDsl, ParseRejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::parse("battery-meltdown badge=1 at=2d00:00").has_value());
  EXPECT_FALSE(FaultPlan::parse("battery-death badge=1 at=nonsense").has_value());
  EXPECT_FALSE(FaultPlan::parse("binlog-truncation badge=1 at=2d00:00 frac=1.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("radio-degradation band=fm at=2d00:00 for=1h db=3").has_value());
}

TEST(FaultPlanDsl, RejectsMalformedNumbersWithLineNumbers) {
  // Every numeric field must be one whole, in-range number: no trailing
  // junk, no empty value, no silent 0, no wrapped or overflowing duration.
  const auto expect_error = [](const std::string& fault, const std::string& fragment) {
    const std::string text = "plan p\n" + fault + "\n";
    const auto plan = FaultPlan::parse(text);
    ASSERT_FALSE(plan.has_value()) << "accepted: " << fault;
    EXPECT_NE(plan.error().message.find("line 2"), std::string::npos) << plan.error().message;
    EXPECT_NE(plan.error().message.find(fragment), std::string::npos)
        << "error '" << plan.error().message << "' lacks '" << fragment << "'";
  };
  expect_error("battery-death badge=7x at=2d09:00", "bad badge '7x'");
  expect_error("battery-death badge=x at=2d09:00", "bad badge 'x'");
  expect_error("beacon-outage beacon= at=2d09:00 for=1h", "bad beacon ''");
  expect_error("radio-degradation band=ble at=2d09:00 for=1h db=abc", "bad db 'abc'");
  expect_error("battery-death badge=1 at=2d09:00x", "bad time '2d09:00x'");
  expect_error("battery-death badge=1 at=2d09:00 for=1hx", "bad duration '1hx'");
  expect_error("battery-death badge=1 at=2d09:00 for=99999999999999h",
               "bad duration '99999999999999h'");
  // Device ids are 8-bit: 257 is not badge 1, and 268 is not beacon 12.
  expect_error("sd-write-failure badge=257 at=1d09:00 for=4h", "badge 257 out of [0, 255]");
  expect_error("beacon-outage beacon=268 at=2d09:00 for=1h", "beacon 268 out of [0, 255]");
  // The plan line takes exactly one name.
  const std::pair<const char*, const char*> plan_lines[] = {
      {"plan p extra\n", "line 1: trailing tokens"},
      {"plan\n", "line 1: plan needs a name"},
  };
  for (const auto& [text, fragment] : plan_lines) {
    const auto plan = FaultPlan::parse(text);
    ASSERT_FALSE(plan.has_value()) << "accepted: " << text;
    EXPECT_NE(plan.error().message.find(fragment), std::string::npos) << plan.error().message;
  }
}

TEST(FaultPlanDsl, PartitionRoundTripsWithGroups) {
  const auto plan = FaultPlan::parse(
      "plan split\n"
      "partition at=6d09:00 for=8h groups=0,1,2|3,4\n");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  ASSERT_EQ(plan->faults().size(), 1u);
  const FaultSpec& spec = plan->faults()[0];
  EXPECT_EQ(spec.kind, FaultKind::kPartition);
  EXPECT_EQ(spec.start, day_start(6) + hours(9));
  EXPECT_EQ(spec.duration, hours(8));
  EXPECT_EQ(spec.group_a, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(spec.group_b, (std::vector<int>{3, 4}));

  const auto reparsed = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;
  EXPECT_EQ(*reparsed, *plan);

  // A partition with no groups is meaningless, not a default.
  EXPECT_FALSE(FaultPlan::parse("partition at=6d09:00 for=8h").has_value());
}

TEST(FaultPlanDsl, PartitionRejectsMalformedGroups) {
  const auto expect_error = [](const std::string& text, const std::string& fragment) {
    const auto plan = FaultPlan::parse(text);
    ASSERT_FALSE(plan.has_value()) << "accepted: " << text;
    EXPECT_NE(plan.error().message.find("line 2"), std::string::npos) << plan.error().message;
    EXPECT_NE(plan.error().message.find(fragment), std::string::npos)
        << "error '" << plan.error().message << "' lacks '" << fragment << "'";
  };
  // One side of the bar empty.
  expect_error("plan p\npartition at=6d09:00 for=8h groups=|1,2\n", "bad groups");
  expect_error("plan p\npartition at=6d09:00 for=8h groups=1,2|\n", "bad groups");
  // Non-integer node id.
  expect_error("plan p\npartition at=6d09:00 for=8h groups=1,a|3\n", "bad groups");
  // A node cannot sit on both sides of the severed link.
  expect_error("plan p\npartition at=6d09:00 for=8h groups=1,2|2,3\n",
               "groups overlap (node 2)");
}

TEST(FaultPlanDsl, EveryKindRoundTripsThroughTheDsl) {
  FaultPlan plan("every-kind");
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    EXPECT_STRNE(kind_name(kind), "?");
    FaultSpec spec;
    spec.kind = kind;
    switch (kind) {
      case FaultKind::kBatteryDeath:
        spec.badge = 0;
        spec.start = day_start(2) + hours(8);
        spec.duration = hours(4);
        break;
      case FaultKind::kSdWriteFailure:
        spec.badge = 1;
        spec.start = day_start(2) + hours(10);
        spec.duration = hours(2);
        break;
      case FaultKind::kBinlogTruncation:
        // Collection-time corruption: timeless, so no at= in the DSL.
        spec.badge = 2;
        spec.magnitude = 0.25;
        break;
      case FaultKind::kBeaconOutage:
        spec.beacon = 7;
        spec.start = day_start(4) + hours(11) + minutes(30);
        spec.duration = minutes(90);
        break;
      case FaultKind::kRadioDegradation:
        spec.band = io::Band::kSubGhz868;
        spec.magnitude = 6.0;
        spec.start = day_start(5) + hours(12);
        spec.duration = hours(3);
        break;
      case FaultKind::kClockStep:
        spec.badge = 4;
        spec.magnitude = 1500.0;
        spec.start = day_start(6) + hours(7);
        break;
      case FaultKind::kBadgeSwap:
        spec.day = 9;
        spec.astronaut_a = 0;
        spec.astronaut_b = 3;
        break;
      case FaultKind::kPartition:
        spec.start = day_start(7) + hours(9);
        spec.duration = hours(8);
        spec.group_a = {0, 1};
        spec.group_b = {2, 3};
        break;
    }
    plan.add(spec);
  }
  ASSERT_EQ(plan.faults().size(), kFaultKindCount);
  const auto parsed = FaultPlan::parse(plan.to_string());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(*parsed, plan);
  EXPECT_EQ(parsed->to_string(), plan.to_string());
}

TEST(FaultPlanDsl, ParseAcceptsCommentsAndBlankLines) {
  const auto plan = FaultPlan::parse(
      "# resilience scenario\n"
      "plan commented\n"
      "\n"
      "beacon-outage beacon=4 at=3d10:30 for=90m\n");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  EXPECT_EQ(plan->name(), "commented");
  ASSERT_EQ(plan->faults().size(), 1u);
  EXPECT_EQ(plan->faults()[0].kind, FaultKind::kBeaconOutage);
  EXPECT_EQ(plan->faults()[0].beacon, 4);
  EXPECT_EQ(plan->faults()[0].start, day_start(3) + hours(10) + minutes(30));
  EXPECT_EQ(plan->faults()[0].duration, minutes(90));
}

// --- the shared faulted mission ---------------------------------------------

// One fault of every kind. Targets avoid each other where interference
// would muddy an assertion (the swap pair excludes the reused badge 2 and
// the dead badge 3's wearer is in it deliberately: the swap is ownership-
// level and must survive a device fault on the same badge's history).
FaultPlan exercise_plan() {
  FaultPlan plan("exercise-all");
  plan.add({.kind = FaultKind::kBatteryDeath,
            .start = day_start(3) + hours(14),
            .duration = hours(36),
            .badge = 3});
  plan.add({.kind = FaultKind::kSdWriteFailure,
            .start = day_start(5) + hours(6),
            .duration = hours(18),
            .badge = 1});
  plan.add({.kind = FaultKind::kBinlogTruncation,
            .start = day_start(2),
            .badge = 4,
            .magnitude = 0.25});
  plan.add({.kind = FaultKind::kBeaconOutage,
            .start = day_start(4) + hours(10),
            .duration = hours(6),
            .beacon = 12});
  plan.add({.kind = FaultKind::kRadioDegradation,
            .start = day_start(7) + hours(12),
            .duration = hours(8),
            .band = io::Band::kBle24,
            .magnitude = 80.0});
  plan.add({.kind = FaultKind::kClockStep,
            .start = day_start(7) + hours(3),
            .badge = 2,
            .magnitude = 5000.0});
  plan.add({.kind = FaultKind::kBadgeSwap, .day = 9, .astronaut_a = 0, .astronaut_b = 3});
  // Mesh radio partition. This mission runs meshless, so the mesh hooks
  // no-op, but the lifecycle (activation and heal instants) must still be
  // recorded — the plan is the contract, the mesh an optional consumer.
  plan.add({.kind = FaultKind::kPartition,
            .start = day_start(10) + hours(9),
            .duration = hours(8),
            .group_a = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
            .group_b = {14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}});
  return plan;
}

class FaultedMissionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::MissionConfig config;
    config.seed = 2024;
    config.fault_plan = exercise_plan();
    core::MissionRunner runner(config);

    // Live support system fed badge vitals every simulated second: sensor
    // faults must surface as alerts while the rest keeps serving.
    support_ = new support::SupportSystem();
    runner.add_observer([](const core::MissionView& view) {
      for (io::BadgeId id = 0; id < 6; ++id) {
        const badge::Badge* b = view.network->badge(id);
        support_->ingest_badge(support::BadgeHealth{view.now, id, b->battery().fraction(),
                                                    b->active(), b->docked(), b->worn()});
      }
    });

    dataset_ = new core::Dataset(runner.run());
    fault_records_ = new std::vector<FaultRecord>(runner.faults().records());
    pipeline_ = new core::AnalysisPipeline(*dataset_);
    gaps_ = new core::AnalysisPipeline::GapReport(pipeline_->gap_report());
  }
  static void TearDownTestSuite() {
    delete gaps_;
    delete pipeline_;
    delete fault_records_;
    delete dataset_;
    delete support_;
    gaps_ = nullptr;
    pipeline_ = nullptr;
    fault_records_ = nullptr;
    dataset_ = nullptr;
    support_ = nullptr;
  }

  static const core::BadgeLog& log(io::BadgeId id) {
    const auto* l = dataset_->log(id);
    EXPECT_NE(l, nullptr);
    return *l;
  }

  static const core::AnalysisPipeline::BadgeGapSummary& gap(io::BadgeId id) {
    return gaps_->badges.at(id);
  }

  // Local-ms window strictly inside [lo, hi) mission time: badge counters
  // boot up to 600 s stale and drift tens of ppm, so shave a 15-minute
  // margin off both ends before comparing against LocalMs timestamps.
  static bool inside(io::LocalMs t, SimTime lo, SimTime hi) {
    const auto lo_ms = static_cast<io::LocalMs>((lo + minutes(15)) / kMillisecond);
    const auto hi_ms = static_cast<io::LocalMs>((hi - minutes(15)) / kMillisecond);
    return t >= lo_ms && t < hi_ms;
  }

  static core::Dataset* dataset_;
  static core::AnalysisPipeline* pipeline_;
  static core::AnalysisPipeline::GapReport* gaps_;
  static std::vector<FaultRecord>* fault_records_;
  static support::SupportSystem* support_;
};

core::Dataset* FaultedMissionTest::dataset_ = nullptr;
core::AnalysisPipeline* FaultedMissionTest::pipeline_ = nullptr;
core::AnalysisPipeline::GapReport* FaultedMissionTest::gaps_ = nullptr;
std::vector<FaultRecord>* FaultedMissionTest::fault_records_ = nullptr;
support::SupportSystem* FaultedMissionTest::support_ = nullptr;

TEST_F(FaultedMissionTest, MissionCompletesAndEveryFaultFired) {
  ASSERT_EQ(fault_records_->size(), exercise_plan().faults().size());
  for (const FaultRecord& r : *fault_records_) {
    EXPECT_GE(r.activated_at, 0) << kind_name(r.spec.kind);
    if (r.spec.duration > 0 || r.spec.kind == FaultKind::kBadgeSwap) {
      EXPECT_GE(r.cleared_at, r.activated_at) << kind_name(r.spec.kind);
    }
  }
  // Activation instants are exact (event kernel, not tick polling).
  EXPECT_EQ((*fault_records_)[0].activated_at, day_start(3) + hours(14));
  EXPECT_EQ((*fault_records_)[0].cleared_at, day_start(3) + hours(14) + hours(36));
}

TEST_F(FaultedMissionTest, BatteryDeathSilencesBadgeThenRecovers) {
  // Dark from shortly after the day-3 collapse until the flaky cradle
  // slot recovers (day 5, 02:00) and the badge recharges: no motion
  // frames on day 4, frames again from day 6 on.
  std::size_t during = 0;
  std::size_t after = 0;
  for (const auto& m : log(3).card.motion()) {
    during += inside(m.t, day_start(4), day_start(5)) ? 1 : 0;
    after += inside(m.t, day_start(6), day_start(15)) ? 1 : 0;
  }
  EXPECT_EQ(during, 0u);
  EXPECT_GT(after, 1000u);
  // The outage dwarfs any organic wear gap on a healthy badge.
  EXPECT_GT(gap(3).longest_gap_s, gap(5).longest_gap_s);
}

TEST_F(FaultedMissionTest, SdWriteFailureDropsRecordsOnTheFloor) {
  EXPECT_GT(log(1).card.dropped_records(), 0u);
  EXPECT_EQ(log(0).card.dropped_records(), 0u);
  EXPECT_EQ(gaps_->total_dropped, log(1).card.dropped_records());
}

TEST_F(FaultedMissionTest, BinlogTruncationLosesTheTail) {
  EXPECT_GT(log(4).card.truncated_records(), 0u);
  EXPECT_EQ(gaps_->total_truncated, log(4).card.truncated_records());
  // The whole late mission is gone from badge 4's card.
  for (const auto& m : log(4).card.motion()) {
    EXPECT_FALSE(inside(m.t, day_start(13), day_start(15)));
  }
}

TEST_F(FaultedMissionTest, BeaconOutageLeavesNoObservations) {
  for (io::BadgeId id = 0; id < 6; ++id) {
    for (const auto& o : log(id).card.beacon_obs()) {
      if (o.beacon != 12) continue;
      EXPECT_FALSE(inside(o.t, day_start(4) + hours(10), day_start(4) + hours(16)))
          << "badge " << int{id} << " saw the dark beacon at local ms " << o.t;
    }
  }
}

TEST_F(FaultedMissionTest, RadioDegradationBlanksTheBleChannel) {
  // 80 dB of extra path loss puts every advertisement below sensitivity.
  for (io::BadgeId id = 0; id < 6; ++id) {
    if (id == 3) continue;  // dead until day 5 anyway
    std::size_t in_window = 0;
    for (const auto& o : log(id).card.beacon_obs()) {
      in_window += inside(o.t, day_start(7) + hours(12), day_start(7) + hours(20)) ? 1 : 0;
    }
    EXPECT_EQ(in_window, 0u) << "badge " << int{id};
  }
}

TEST_F(FaultedMissionTest, ClockStepYieldsPiecewiseFitAndSaneRectification) {
  const auto* fit = pipeline_->clock_fit(2);
  ASSERT_NE(fit, nullptr);
  EXPECT_TRUE(fit->stepped());
  EXPECT_TRUE(gap(2).fit_stepped);
  // The piecewise fit re-absorbs the 5 s step into two clean segments.
  EXPECT_LT(fit->max_residual_ms, 200.0);
  // No other badge's clock stepped.
  for (io::BadgeId id = 0; id < 6; ++id) {
    if (id == 2) continue;
    EXPECT_FALSE(gap(id).fit_stepped) << "badge " << int{id};
  }
}

TEST_F(FaultedMissionTest, ScriptedSwapIsVisibleInAttribution) {
  const auto& corrected = dataset_->ownership;
  // Day 9: astronauts 0 and 3 carry each other's badges.
  EXPECT_EQ(corrected.badge_of(0, 9), std::optional<io::BadgeId>{3});
  EXPECT_EQ(corrected.badge_of(3, 9), std::optional<io::BadgeId>{0});
  // Days 8 and 10: back to normal.
  EXPECT_EQ(corrected.badge_of(0, 8), std::optional<io::BadgeId>{0});
  EXPECT_EQ(corrected.badge_of(0, 10), std::optional<io::BadgeId>{0});
  // The naive one-owner assumption misattributes the swap day.
  EXPECT_EQ(dataset_->naive_ownership.badge_of(0, 9), std::optional<io::BadgeId>{0});
}

TEST_F(FaultedMissionTest, SupportSystemRaisesInfrastructureAlerts) {
  EXPECT_GE(support_->alert_count(support::AlertKind::kBatteryLow), 1u);
  EXPECT_GE(support_->alert_count(support::AlertKind::kSensorLoss), 1u);
  // Alerts fan out through the ability-based interface like any other.
  EXPECT_GE(support_->deliveries().size(), support_->alerts().size());
}

TEST_F(FaultedMissionTest, PipelineStillProducesTheFullArtifactSet) {
  // Graceful degradation, not absence: every artifact still computes.
  const auto artifacts = pipeline_->artifacts();
  EXPECT_GT(artifacts.dataset.total_records, 0u);
  EXPECT_EQ(artifacts.fig3.size(), crew::kCrewSize);
  EXPECT_FALSE(artifacts.table1.empty());
}

// --- reproducibility --------------------------------------------------------

TEST(FaultReproducibility, SameSeedSamePlanIsByteIdentical) {
  FaultPlan plan("repro");
  plan.add({.kind = FaultKind::kBatteryDeath,
            .start = day_start(2) + hours(9),
            .duration = hours(4),
            .badge = 0});
  plan.add({.kind = FaultKind::kClockStep,
            .start = day_start(2) + hours(12),
            .badge = 1,
            .magnitude = -1500.0});

  auto run = [&plan] {
    core::MissionConfig config;
    config.seed = 99;
    config.fault_plan = plan;
    core::MissionRunner runner(config);
    return runner.run_days(2);
  };
  const core::Dataset a = run();
  const core::Dataset b = run();
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i].card.export_binlog(), b.logs[i].card.export_binlog())
        << "badge " << int{a.logs[i].id};
  }
}

// --- Flight-recorder coverage (hs::obs) -------------------------------------

TEST(FaultObservability, EveryArmedSpecLandsInTheFlightRecorder) {
  // Arming happens in the MissionRunner constructor, so no run is needed.
  // One-to-one coverage: every spec in the plan leaves exactly one arming
  // event carrying its plan index and kind, and the counter agrees.
  const FaultPlan plans[] = {FaultPlan::battery_stress(), FaultPlan::mesh_partition(),
                             FaultPlan::combined(42)};
  for (const FaultPlan& plan : plans) {
    core::MissionConfig config;
    config.seed = 42;
    config.fault_plan = plan;
    config.mesh.enabled = true;  // partitions only arm against a live mesh
    const core::MissionRunner runner(config);

    const auto armed = runner.flight_recorder().events(obs::EventCode::kFaultArmed);
    const auto& specs = runner.faults().plan().faults();
    ASSERT_EQ(armed.size(), specs.size()) << plan.name();
    for (std::size_t i = 0; i < armed.size(); ++i) {
      EXPECT_EQ(armed[i].a, static_cast<std::int64_t>(i)) << plan.name() << " spec " << i;
      EXPECT_EQ(armed[i].b, static_cast<std::int64_t>(specs[i].kind))
          << plan.name() << " spec " << i;
      EXPECT_EQ(armed[i].subsys, obs::Subsys::kFaults);
    }
    const obs::Counter* counter = runner.metrics().find_counter("faults.armed");
    ASSERT_NE(counter, nullptr) << plan.name();
    EXPECT_EQ(counter->value(), specs.size()) << plan.name();
  }
}

TEST(FaultObservability, LifecycleTransitionsAreLogged) {
  // A windowed fault inside a 2-day run must log both edges of its
  // lifecycle, with the counters mirroring the recorder's view.
  FaultPlan plan("lifecycle");
  plan.add({.kind = FaultKind::kBeaconOutage,
            .start = day_start(1) + hours(9),
            .duration = hours(3),
            .beacon = 2});
  core::MissionConfig config;
  config.seed = 7;
  config.fault_plan = plan;
  core::MissionRunner runner(config);
  (void)runner.run_days(2);

  const auto& rec = runner.flight_recorder();
  EXPECT_EQ(rec.count(obs::EventCode::kFaultArmed), 1U);
  ASSERT_EQ(rec.count(obs::EventCode::kFaultActivated), 1U);
  ASSERT_EQ(rec.count(obs::EventCode::kFaultCleared), 1U);
  const auto activated = rec.events(obs::EventCode::kFaultActivated);
  const auto cleared = rec.events(obs::EventCode::kFaultCleared);
  EXPECT_EQ(activated[0].t, day_start(1) + hours(9));
  EXPECT_EQ(cleared[0].t, day_start(1) + hours(12));
  EXPECT_EQ(activated[0].b, static_cast<std::int64_t>(FaultKind::kBeaconOutage));

  ASSERT_NE(runner.metrics().find_counter("faults.activated"), nullptr);
  EXPECT_EQ(runner.metrics().find_counter("faults.activated")->value(), 1U);
  EXPECT_EQ(runner.metrics().find_counter("faults.cleared")->value(), 1U);
}

}  // namespace
}  // namespace hs::faults
