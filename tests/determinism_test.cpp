// Serial ≡ parallel: the pipeline's contract is that
// PipelineOptions::threads changes wall-clock time only. Each case below
// is one input (a seed and a fault plan): it simulates the mission once,
// runs the analysis at threads=1 (the reference) and at the hardware
// thread count into two copies of the post-mission metrics registry and
// tracer, and demands bit-identical output — every figure, table,
// statistic and intermediate product — and byte-identical metrics,
// flight-log and trace dumps. MissionRunner never reads the thread
// count, so one mission per input covers every thread count; the two
// cases that also simulate the mission a second time check that a fresh
// run repeats (plain seed 42, and the combined-fault plan, where every
// fault kind fires).
//
// Exact floating-point equality is intentional: every shard writes only
// its own slot and every cross-shard fold happens serially in a fixed
// order (see docs/CONCURRENCY.md), so there is no legitimate source of
// divergence. A tolerance here would only hide a broken shard boundary.
// What the serial values themselves must be is pinned elsewhere:
// tests/repro_test.cpp digests every output of the seed-42 mission and
// tests/record_batch_test.cpp checks the pipeline against a per-record
// attribution oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "determinism_support.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"

namespace hs::core {
namespace {

using test::Analysis;
using test::expect_same_dumps;
using test::MissionDumps;

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw : 4;  // a 1-core box must still exercise the pool
}

/// A mission runner with a live support system sharing its registry,
/// recorder and tracer, so the dumps also cover the support.* counters
/// and alert traces.
struct Mission {
  explicit Mission(MissionConfig config) : runner(std::move(config)) {
    support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
    runner.add_observer([this](const MissionView& view) {
      for (io::BadgeId id = 0; id < 6; ++id) {
        const badge::Badge* b = view.network->badge(id);
        support.ingest_badge(support::BadgeHealth{view.now, id, b->battery().fraction(),
                                                  b->active(), b->docked(), b->worn()});
      }
    });
  }
  Mission(const Mission&) = delete;
  Mission& operator=(const Mission&) = delete;

  MissionRunner runner;
  support::SupportSystem support;
};

void expect_same_series(const AnalysisPipeline::DailySeries& a,
                        const AnalysisPipeline::DailySeries& b) {
  EXPECT_EQ(a.first_day, b.first_day);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t d = 0; d < a.values.size(); ++d) {
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      EXPECT_EQ(a.values[d][i], b.values[d][i]) << "day row " << d << " astronaut " << i;
    }
  }
}

/// Demand bit-identical output from two pipelines over the same dataset.
/// `serial` is the reference configuration, `parallel` the one under test.
void expect_pipelines_identical(const Dataset& data, const AnalysisPipeline& serial,
                                const AnalysisPipeline& parallel) {
  // Intermediate products: clock fits, tracks, speech intervals.
  for (const auto& log : data.logs) {
    const auto* fs = serial.clock_fit(log.id);
    const auto* fp = parallel.clock_fit(log.id);
    ASSERT_EQ(fs == nullptr, fp == nullptr);
    if (fs == nullptr) continue;
    EXPECT_EQ(fs->offset_ms, fp->offset_ms) << "badge " << log.id;
    EXPECT_EQ(fs->rate, fp->rate) << "badge " << log.id;
    EXPECT_EQ(fs->samples, fp->samples) << "badge " << log.id;
  }
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    EXPECT_EQ(serial.track(i), parallel.track(i)) << "astronaut " << i;
    const auto& ss = serial.speech_intervals(i);
    const auto& sp = parallel.speech_intervals(i);
    ASSERT_EQ(ss.size(), sp.size()) << "astronaut " << i;
    for (std::size_t k = 0; k < ss.size(); ++k) {
      EXPECT_EQ(ss[k].start_s, sp[k].start_s);
      EXPECT_EQ(ss[k].speech, sp[k].speech);
      EXPECT_EQ(ss[k].mean_voiced_db, sp[k].mean_voiced_db);
      EXPECT_EQ(ss[k].dominant_f0_hz, sp[k].dominant_f0_hz);
      EXPECT_EQ(ss[k].voiced_frames, sp[k].voiced_frames);
      EXPECT_EQ(ss[k].total_frames, sp[k].total_frames);
    }
  }

  // The full artifact set, derived concurrently on the parallel side.
  const auto a = serial.artifacts();
  const auto b = parallel.artifacts();

  EXPECT_EQ(a.fig2.counts(), b.fig2.counts());

  ASSERT_EQ(a.fig3.size(), b.fig3.size());
  for (std::size_t i = 0; i < a.fig3.size(); ++i) {
    EXPECT_EQ(a.fig3[i].total_seconds(), b.fig3[i].total_seconds()) << "astronaut " << i;
    EXPECT_EQ(a.fig3[i].grid_rows(), b.fig3[i].grid_rows()) << "astronaut " << i;
  }

  expect_same_series(a.fig4, b.fig4);
  expect_same_series(a.fig6, b.fig6);

  ASSERT_EQ(a.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < a.table1.size(); ++i) {
    EXPECT_EQ(a.table1[i].id, b.table1[i].id);
    EXPECT_EQ(a.table1[i].has_social, b.table1[i].has_social);
    EXPECT_EQ(a.table1[i].company, b.table1[i].company);
    EXPECT_EQ(a.table1[i].authority, b.table1[i].authority);
    EXPECT_EQ(a.table1[i].talking, b.table1[i].talking);
    EXPECT_EQ(a.table1[i].walking, b.table1[i].walking);
  }

  EXPECT_EQ(a.dataset.total_gib, b.dataset.total_gib);
  EXPECT_EQ(a.dataset.worn_of_daytime, b.dataset.worn_of_daytime);
  EXPECT_EQ(a.dataset.active_of_daytime, b.dataset.active_of_daytime);
  EXPECT_EQ(a.dataset.worn_by_day, b.dataset.worn_by_day);
  EXPECT_EQ(a.dataset.total_records, b.dataset.total_records);

  EXPECT_EQ(a.dwell.typical_biolab_h, b.dwell.typical_biolab_h);
  EXPECT_EQ(a.dwell.typical_office_h, b.dwell.typical_office_h);
  EXPECT_EQ(a.dwell.typical_workshop_h, b.dwell.typical_workshop_h);

  EXPECT_EQ(a.pairs.af_private_h, b.pairs.af_private_h);
  EXPECT_EQ(a.pairs.de_private_h, b.pairs.de_private_h);
  EXPECT_EQ(a.pairs.af_meetings_h, b.pairs.af_meetings_h);
  EXPECT_EQ(a.pairs.de_meetings_h, b.pairs.de_meetings_h);

  EXPECT_EQ(a.survey.wellbeing_speech_corr, b.survey.wellbeing_speech_corr);
  EXPECT_EQ(a.survey.comfort_slope_per_day, b.survey.comfort_slope_per_day);
  EXPECT_EQ(a.survey.responses, b.survey.responses);

  // Fig. 5 timeline (day 5: mid-mission, fully instrumented; the last
  // day of a shorter mission) and the voice census round out the paper's
  // artifact set.
  const int day = std::min(5, data.script.mission_days);
  const auto t1 = serial.fig5_timeline(day);
  const auto t2 = parallel.fig5_timeline(day);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i].size(), t2[i].size());
    for (std::size_t k = 0; k < t1[i].size(); ++k) {
      EXPECT_EQ(t1[i][k].start_s, t2[i][k].start_s);
      EXPECT_EQ(t1[i][k].room, t2[i][k].room);
      EXPECT_EQ(t1[i][k].speech_fraction, t2[i][k].speech_fraction);
      EXPECT_EQ(t1[i][k].loudness_db, t2[i][k].loudness_db);
    }
  }
  EXPECT_EQ(serial.voice_census(), parallel.voice_census());

  // Meetings and their speech dynamics on the same day.
  const auto ms = serial.meetings_on(day);
  const auto mp = parallel.meetings_on(day);
  ASSERT_EQ(ms.size(), mp.size());
  for (std::size_t k = 0; k < ms.size(); ++k) {
    EXPECT_EQ(ms[k].room, mp[k].room) << "meeting " << k;
    EXPECT_EQ(ms[k].start_s, mp[k].start_s) << "meeting " << k;
    EXPECT_EQ(ms[k].end_s, mp[k].end_s) << "meeting " << k;
    EXPECT_EQ(ms[k].participants, mp[k].participants) << "meeting " << k;
    const auto ds = serial.meeting_dynamics(ms[k]);
    const auto dp = parallel.meeting_dynamics(mp[k]);
    EXPECT_EQ(ds.speech_fraction, dp.speech_fraction) << "meeting " << k;
    EXPECT_EQ(ds.mean_loudness_db, dp.mean_loudness_db) << "meeting " << k;
    EXPECT_EQ(ds.talk_share, dp.talk_share) << "meeting " << k;
  }
}

/// One input's thread comparison: simulate the mission once through
/// `last_day`, analyse it at threads=1 and at the hardware thread count,
/// and demand bit-identical pipelines and byte-identical dumps. Returns
/// the hardware-thread dumps (after one artifacts() call, which shards
/// too and must not register drift).
MissionDumps expect_thread_independent(const MissionConfig& config, int last_day) {
  Mission mission(config);
  const Dataset data = mission.runner.run_days(last_day);
  const Analysis serial(mission.runner, data, 1);
  const Analysis parallel(mission.runner, data, hardware_threads());
  expect_pipelines_identical(data, *serial.pipeline, *parallel.pipeline);
  const MissionDumps dumps = parallel.dumps();
  expect_same_dumps(serial.dumps(), dumps);
  return dumps;
}

/// A fresh run of the same input at the hardware thread count, analysed
/// exactly as expect_thread_independent analyses its parallel copy:
/// repeatability, not just thread independence.
MissionDumps fresh_run_dumps(const MissionConfig& config, int last_day) {
  Mission mission(config);
  const Dataset data = mission.runner.run_days(last_day);
  const Analysis analysis(mission.runner, data, hardware_threads());
  (void)analysis.pipeline->artifacts();
  return analysis.dumps();
}

MissionConfig mission_config(std::uint64_t seed, faults::FaultPlan plan = {}) {
  MissionConfig config;
  config.seed = seed;
  config.fault_plan = std::move(plan);
  return config;
}

int whole_mission(const MissionConfig& config) { return config.script.mission_days; }

TEST(DeterminismTest, PlainMissionSeed42RepeatsAndIsThreadIndependent) {
  const MissionConfig config = mission_config(42);
  const MissionDumps dumps = expect_thread_independent(config, whole_mission(config));
  expect_same_dumps(dumps, fresh_run_dumps(config, whole_mission(config)));

  // The dump must be real data, not an agreement on emptiness. (The
  // kernel counters and alert counts are legitimately 0 on the happy
  // path — no faults and no mesh means nothing is ever enqueued — so
  // only presence is required for those; the I/O and pipeline counters
  // must show traffic.)
  const obs::MetricsSnapshot& snap = dumps.metrics;
  for (const char* name : {"sim.events_fired", "badge.sd_records_written",
                           "pipeline.records_attributed", "support.alerts_raised"}) {
    ASSERT_NE(snap.find(name), nullptr) << name;
  }
  EXPECT_GT(snap.find("badge.sd_records_written")->count, 0U);
  EXPECT_GT(snap.find("pipeline.records_attributed")->count, 0U);

  // The trace dump is real too, and survives a parse round-trip. On the
  // happy path (no faults, no mesh) the mission loop emits nothing — the
  // kernel never enqueues, badges never offload — so the guaranteed
  // spans are the pipeline's: one run root, a stage per phase, a shard
  // per unit of parallel work, all emitted serially after each barrier.
  auto parsed = obs::Tracer::parse_dump(dumps.trace_csv);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_FALSE(parsed->spans.empty());
  const obs::TraceIndex index(std::move(parsed->spans));
  const auto summary = index.summarize();
  const auto count_of = [&summary](obs::SpanKind kind) {
    for (const auto& [k, n] : summary.by_kind) {
      if (k == kind) return n;
    }
    return std::size_t{0};
  };
  EXPECT_GT(count_of(obs::SpanKind::kPipelineRun), 0U);
  EXPECT_GT(count_of(obs::SpanKind::kPipelineStage), 0U);
  EXPECT_GT(count_of(obs::SpanKind::kPipelineShard), 0U);
}

TEST(DeterminismTest, PlainMissionSeed7IsThreadIndependent) {
  const MissionConfig config = mission_config(7);
  (void)expect_thread_independent(config, whole_mission(config));
}

TEST(DeterminismTest, CombinedFaultsSeed42RepeatsAndIsThreadIndependent) {
  // The kitchen-sink preset fires every fault kind; fault bookkeeping,
  // alert storms and degraded-I/O counters all land in the dump. Fault
  // injection changes the dataset, never the analysis, and the dump may
  // depend on neither the pipeline's thread count nor the run.
  const MissionConfig config = mission_config(42, faults::FaultPlan::combined(42));
  const MissionDumps dumps = expect_thread_independent(config, whole_mission(config));
  expect_same_dumps(dumps, fresh_run_dumps(config, whole_mission(config)));

  // Under a real plan the event kernel is busy (activations, recoveries)
  // and the fault counters show the whole lifecycle.
  const obs::MetricsSnapshot& snap = dumps.metrics;
  ASSERT_NE(snap.find("sim.events_fired"), nullptr);
  EXPECT_GT(snap.find("sim.events_fired")->count, 0U);
  ASSERT_NE(snap.find("faults.armed"), nullptr);
  EXPECT_GT(snap.find("faults.armed")->count, 0U);
}

/// A generated cascade topology (one per seed): the scenario layer
/// expands dependency-graph fault propagation into a flat plan before
/// the mission starts, and that plan rides the stock injector — so the
/// dumps must stay a pure function of the seed.
void expect_cascade_mission_thread_independent(std::uint64_t seed) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::generated(seed);
  const auto expanded = scenario::expand_scenario(spec, seed);
  ASSERT_TRUE(expanded.has_value()) << expanded.error().message;
  ASSERT_FALSE(expanded->cascade.plan.empty());
  const MissionConfig config = mission_config(seed, expanded->cascade.plan);
  (void)expect_thread_independent(config, whole_mission(config));
}

TEST(DeterminismTest, CascadeMissionSeed7IsThreadIndependent) {
  expect_cascade_mission_thread_independent(7);
}

TEST(DeterminismTest, CascadeMissionSeed42IsThreadIndependent) {
  expect_cascade_mission_thread_independent(42);
}

/// A 2-day partitioned-mesh mission (badges on from day 1, so chunk
/// stories exist) at a 50 % trace keep threshold. The keep/drop decision
/// hashes only the trace id, so the dumps must stay byte-identical across
/// thread counts with sampling on the path.
void expect_sampled_mission_thread_independent(std::uint64_t seed) {
  MissionConfig config = mission_config(seed, faults::FaultPlan::mesh_partition());
  config.mesh.enabled = true;
  config.collect_from_mesh = true;
  config.script.badge_start_day = 1;
  config.trace_keep_millionths = obs::Tracer::kSampleScale / 2;
  const MissionDumps dumps = expect_thread_independent(config, 2);
  // The dump declares its own threshold (hs_trace reads it back), and
  // sampling actually dropped something at this scenario size.
  EXPECT_NE(dumps.trace_csv.find("\n#sampling,500000,"), std::string::npos);
  const auto parsed = obs::Tracer::parse_dump(dumps.trace_csv);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_GT(parsed->meta.dropped, 0U);
  EXPECT_FALSE(parsed->spans.empty());
}

TEST(DeterminismTest, SampledMeshMissionSeed7IsThreadIndependent) {
  expect_sampled_mission_thread_independent(7);
}

TEST(DeterminismTest, SampledMeshMissionSeed42IsThreadIndependent) {
  expect_sampled_mission_thread_independent(42);
}

}  // namespace
}  // namespace hs::core
