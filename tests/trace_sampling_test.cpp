// Scenario-level contract of head-based trace sampling: run the cascade
// storm habitat (the bench/latency_paths "cascade-storm" scenario) at
// full sampling and at a 50 % keep threshold, and pin the three
// properties docs/TRACING.md promises:
//
//  1. the sampled dump is exactly the keep-filter of the full dump (the
//     per-kind budgets do not bind at this scenario size, so sampling is
//     the only thing dropping spans),
//  2. whole stories: every trace id keeps all of its spans or none —
//     sampling never orphans a child span, and
//  3. every evidenced alert that survives sampling reports the same
//     record -> raise critical-path latency as the full dump (the
//     kAlertEvidence span carries the record anchor inside the alert's
//     own trace, so chunk-trace drops cannot bend the measurement).
//
// Runs for seeds 7 and 42 like the other determinism suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/runner.hpp"
#include "fleet/campaign.hpp"
#include "mesh/read_view.hpp"
#include "obs/trace_query.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"

namespace hs {
namespace {

struct StormTrace {
  obs::TraceMeta meta;
  std::vector<obs::TraceSpan> spans;
};

/// One instrumented 2-day power-storm habitat (the cascade_storm phase-2
/// wiring) with the given trace keep threshold.
StormTrace run_storm(std::uint64_t seed, std::uint32_t keep_millionths) {
  fleet::HabitatSpec spec;
  spec.seed = seed;
  spec.days = 2;
  spec.cascade = "power-storm";
  core::MissionConfig config = fleet::make_mission_config(spec);
  config.trace_keep_millionths = keep_millionths;
  core::MissionRunner runner(config);
  support::SupportSystem support;
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  const auto preset = scenario::scenario_preset(spec.cascade, seed);
  const auto expanded = scenario::expand_scenario(*preset, seed);
  EXPECT_TRUE(expanded.has_value());
  runner.add_observer([&support, &expanded](const core::MissionView& view) {
    if (view.now != 0 && view.now % kDay == 0) {
      expanded->coupling.apply_day(mission_day(view.now - 1), support.resources());
      support.end_of_day(view.now);
    }
    if (view.mesh != nullptr && view.now % minutes(5) == 0 && view.now != 0) {
      const mesh::MeshReadView mesh_view(*view.mesh);
      for (const auto& health : mesh_view.health_snapshot(view.now, minutes(10))) {
        support.ingest_badge(health);
      }
    }
  });
  (void)runner.run_days(spec.days);
  return StormTrace{runner.tracer().meta(), runner.tracer().spans()};
}

class TraceSamplingScenario : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceSamplingScenario, SampledDumpIsTheStoryFilterOfTheFullDump) {
  const std::uint64_t seed = GetParam();
  const StormTrace full = run_storm(seed, obs::Tracer::kSampleScale);
  const StormTrace half = run_storm(seed, obs::Tracer::kSampleScale / 2);
  ASSERT_FALSE(full.spans.empty());

  // Precondition for the filter identity: nothing was dropped at full
  // sampling, so budgets and the cap never bound at this scenario size.
  EXPECT_EQ(full.meta.dropped, 0U);

  // 1. The sampled run's span list (ids included — id assignment never
  // depends on the keep/drop decision) is the keep-filter of the full
  // run. sampled_in() is a pure function of (trace id, threshold), so a
  // fresh probe tracer reproduces the decision exactly.
  obs::Tracer probe(seed);
  probe.set_sampling(obs::Tracer::kSampleScale / 2);
  std::vector<obs::TraceSpan> expect;
  for (const obs::TraceSpan& s : full.spans) {
    if (probe.sampled_in(s.trace)) expect.push_back(s);
  }
  EXPECT_EQ(half.spans, expect);
  EXPECT_FALSE(half.spans.empty());
  EXPECT_LT(half.spans.size(), full.spans.size());
  EXPECT_EQ(half.meta.emitted, full.meta.emitted);
  EXPECT_EQ(half.meta.dropped, full.spans.size() - half.spans.size());

  // 2. Whole stories: every surviving trace keeps every span the full
  // run gave it — no orphaned children.
  std::map<obs::TraceId, std::size_t> full_count;
  for (const obs::TraceSpan& s : full.spans) ++full_count[s.trace];
  std::map<obs::TraceId, std::size_t> half_count;
  for (const obs::TraceSpan& s : half.spans) ++half_count[s.trace];
  for (const auto& [trace, n] : half_count) {
    EXPECT_EQ(n, full_count[trace]) << "trace " << trace << " lost spans to sampling";
  }

  // 3. Surviving evidenced alerts keep their exact record -> raise
  // latency (the record anchor travels in the alert's own trace).
  const obs::TraceIndex full_index(full.spans);
  const obs::TraceIndex half_index(half.spans);
  const obs::PathLatencies full_lat = full_index.path_latencies();
  const obs::PathLatencies half_lat = half_index.path_latencies();
  ASSERT_FALSE(full_lat.record_alert.empty()) << "storm raised no evidenced alert";
  std::map<std::int64_t, double> by_alert;
  for (std::size_t i = 0; i < full_lat.record_alert.size(); ++i) {
    by_alert[full_lat.record_alert[i]] = full_lat.record_to_raise_s[i];
  }
  for (std::size_t i = 0; i < half_lat.record_alert.size(); ++i) {
    const std::int64_t alert = half_lat.record_alert[i];
    ASSERT_TRUE(by_alert.count(alert)) << "alert " << alert << " only in the sampled dump";
    EXPECT_EQ(half_lat.record_to_raise_s[i], by_alert[alert]) << "alert " << alert;
  }
  // Every alert trace the sampler kept still has its full evidence chain.
  for (const std::int64_t alert : half_index.alert_indices()) {
    const obs::AlertPath full_path = full_index.critical_path(alert);
    const obs::AlertPath half_path = half_index.critical_path(alert);
    ASSERT_TRUE(half_path.found);
    EXPECT_EQ(half_path.evidence.size(), full_path.evidence.size()) << "alert " << alert;
    EXPECT_EQ(half_path.deliveries.size(), full_path.deliveries.size()) << "alert " << alert;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSamplingScenario, ::testing::Values(7, 42));

}  // namespace
}  // namespace hs
