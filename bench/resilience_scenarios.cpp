// Resilience scenarios: fault plans run against the full mission, with
// per-fault recovery metrics — when each fault activated and cleared, how
// fast the live support system noticed (for the fault classes it can
// see), and what the dataset lost (records dropped at write time, records
// truncated at collection, and per badge the longest gap and the clock
// fit the analysis had to make).
//
//   resilience_scenarios [seed=42]             # the six preset plans
//   resilience_scenarios [seed=42] plan.txt    # replay one plan file
//
// A plan file is written in the fault DSL. One that cannot be read, or
// does not parse, exits 1 before any mission runs, naming the path or the
// DSL's line. docs/RESILIENCE.md documents the taxonomy and the DSL;
// tests/faults_test.cpp pins the per-kind degradation contracts this
// harness reports on.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault_plan.hpp"
#include "support/system.hpp"

namespace {

using namespace hs;

/// A fault's activation or clear time in the DSL's `NdHH:MM`, `-` if unset.
std::string clock_str(SimTime t) { return t < 0 ? "-" : faults::dsl::format_time(t); }

std::string target_str(const faults::FaultSpec& spec) {
  char buf[48];
  switch (spec.kind) {
    case faults::FaultKind::kBeaconOutage:
      std::snprintf(buf, sizeof(buf), "beacon %d", spec.beacon);
      break;
    case faults::FaultKind::kRadioDegradation:
      std::snprintf(buf, sizeof(buf), "%s band",
                    spec.band == io::Band::kBle24 ? "BLE" : "sub-GHz");
      break;
    case faults::FaultKind::kBadgeSwap:
      std::snprintf(buf, sizeof(buf), "crew %zu<->%zu", spec.astronaut_a, spec.astronaut_b);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "badge %d", spec.badge);
      break;
  }
  return buf;
}

bool support_visible(faults::FaultKind kind) {
  // Only battery faults surface through the live badge-health monitor;
  // everything else is detected offline (at collection or analysis time).
  return kind == faults::FaultKind::kBatteryDeath;
}

void run_plan(const faults::FaultPlan& plan, std::uint64_t seed) {
  std::printf("\n== plan: %s (%zu fault%s) ==\n", plan.name().c_str(), plan.faults().size(),
              plan.faults().size() == 1 ? "" : "s");

  core::MissionConfig config;
  config.seed = seed;
  config.fault_plan = plan;
  core::MissionRunner runner(config);

  support::SupportSystem support;
  runner.add_observer([&support](const core::MissionView& view) {
    for (io::BadgeId id = 0; id < 6; ++id) {
      const badge::Badge* b = view.network->badge(id);
      support.ingest_badge(support::BadgeHealth{view.now, id, b->battery().fraction(),
                                                b->active(), b->docked(), b->worn()});
    }
  });

  const core::Dataset data = runner.run();
  const core::AnalysisPipeline pipeline(data);
  const auto gaps = pipeline.gap_report();

  std::printf("%-18s %-14s %-9s %-9s detection\n", "fault", "target", "active", "cleared");
  for (const auto& record : runner.faults().records()) {
    std::string detection = "offline (collection/analysis)";
    if (support_visible(record.spec.kind) && record.activated_at >= 0) {
      // First infrastructure alert at or after activation.
      for (const auto& alert : support.alerts()) {
        const bool infra = alert.kind == support::AlertKind::kBatteryLow ||
                           alert.kind == support::AlertKind::kSensorLoss;
        if (infra && alert.time >= record.activated_at) {
          detection = "+" + std::to_string((alert.time - record.activated_at) / kSecond) +
                      "s (" + support::alert_kind_name(alert.kind) + ")";
          break;
        }
      }
    }
    std::printf("%-18s %-14s %-9s %-9s %s\n", faults::kind_name(record.spec.kind),
                target_str(record.spec).c_str(), clock_str(record.activated_at).c_str(),
                clock_str(record.cleared_at).c_str(), detection.c_str());
  }

  std::size_t records = 0;
  for (const auto& badge : gaps.badges) records += badge.records;
  std::printf("dataset: %zu records kept, %zu dropped (write faults), %zu truncated (collection)\n",
              records, gaps.total_dropped, gaps.total_truncated);
  std::printf("  %-7s %9s %9s %9s %7s %9s  %s\n", "badge", "records", "dropped", "truncated",
              "gap(s)", "resid(ms)", "clock fit");
  for (io::BadgeId id = 0; id < 6; ++id) {
    const auto& badge = gaps.badges.at(id);
    std::printf("  %-7d %9zu %9zu %9zu %7.0f %9.1f  %s\n", int{id}, badge.records,
                badge.dropped_records, badge.truncated_records, badge.longest_gap_s,
                badge.fit_residual_ms, badge.fit_stepped ? "piecewise (step absorbed)" : "linear");
  }
  std::printf("alerts:  battery-low=%zu sensor-loss=%zu (of %zu total)\n",
              support.alert_count(support::AlertKind::kBatteryLow),
              support.alert_count(support::AlertKind::kSensorLoss), support.alerts().size());

  // Attribution check for script-level faults: the swap day reads
  // differently under the corrected vs the naive ownership model.
  for (const auto& record : runner.faults().records()) {
    if (record.spec.kind != faults::FaultKind::kBadgeSwap) continue;
    const auto corrected = data.ownership.badge_of(record.spec.astronaut_a, record.spec.day);
    const auto naive = data.naive_ownership.badge_of(record.spec.astronaut_a, record.spec.day);
    std::printf("swap day %d: astronaut %zu carried badge %d (naive model says %d)\n",
                record.spec.day, record.spec.astronaut_a, corrected ? int{*corrected} : -1,
                naive ? int{*naive} : -1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using hs::faults::FaultPlan;
  const auto seed = hs::bench::seed_from_args(argc, argv);
  std::vector<FaultPlan> plans;
  if (argc > 2) {
    // A directory opens as a stream and reads as empty, which would parse
    // as an empty plan; only a regular file is a plan file.
    std::error_code ec;
    std::ifstream in(argv[2]);
    if (!std::filesystem::is_regular_file(argv[2], ec) || !in) {
      std::fprintf(stderr, "resilience_scenarios: cannot read plan file %s\n", argv[2]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = FaultPlan::parse(text.str());
    if (!parsed.has_value()) {
      std::fprintf(stderr, "resilience_scenarios: %s: %s\n", argv[2],
                   parsed.error().message.c_str());
      return 1;
    }
    plans.push_back(std::move(*parsed));
    std::printf("# Resilience scenarios: %s vs the full mission, seed %llu\n", argv[2],
                static_cast<unsigned long long>(seed));
  } else {
    plans = {FaultPlan::day9_badge_swap(), FaultPlan::battery_stress(),
             FaultPlan::storage_stress(),  FaultPlan::infrastructure_stress(),
             FaultPlan::clock_anomalies(), FaultPlan::combined(seed)};
    std::printf("# Resilience scenarios: preset fault plans vs the full mission, seed %llu\n",
                static_cast<unsigned long long>(seed));
  }
  for (const auto& plan : plans) run_plan(plan, seed);
  return 0;
}
