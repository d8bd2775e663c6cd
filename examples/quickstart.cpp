// Quickstart: run a short (3-day) slice of the ICAres-1 mission, analyze
// the collected badge data, and print headline sociometrics.
//
// This is the smallest end-to-end use of the library:
//   configure -> run -> AnalysisPipeline -> figures.
#include <cstdio>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "io/table.hpp"
#include "obs/trace_query.hpp"
#include "util/strings.hpp"

#include <iostream>

int main() {
  using namespace hs;

  // 1. Configure a short mission (the full ICAres-1 script, first 3
  //    instrumented days only).
  core::MissionConfig config;
  config.seed = 7;

  // 2. Run the simulation: habitat, 27 beacons, 6 astronauts, badges.
  core::MissionRunner runner(config);
  std::printf("Running days 1-4 of the ICAres-1 mission...\n");
  const core::Dataset data = runner.run_days(4);
  std::printf("Collected %.2f GiB across %zu badges.\n", to_gib(data.total_bytes),
              data.logs.size());

  // 3. Offline analysis: clock rectification, ownership attribution,
  //    localization, speech/walking classification. Sharing the runner's
  //    metrics registry and tracer folds the pipeline.* counters and the
  //    pipeline's stage/shard spans into the same dumps.
  core::PipelineOptions opts;
  opts.metrics = &runner.metrics();
  opts.tracer = &runner.tracer();
  core::AnalysisPipeline pipeline(data, opts);

  const auto stats = pipeline.dataset_stats();
  std::printf("Average badge: worn %.0f%% of daytime, active %.0f%% (records: %zu).\n",
              100.0 * stats.worn_of_daytime, 100.0 * stats.active_of_daytime,
              stats.total_records);

  // 4. A figure: room-to-room passages (Fig. 2, partial mission).
  const auto transitions = pipeline.fig2_transitions();
  io::TextTable table({"from\\to", "airlock", "bedroom", "biolab", "kitchen", "office",
                       "restroom", "storage", "workshop"});
  for (const auto from : habitat::fig2_rooms()) {
    std::vector<std::string> row{habitat::room_name(from)};
    for (const auto to : habitat::fig2_rooms()) {
      row.push_back(std::to_string(transitions.count(from, to)));
    }
    table.add_row(std::move(row));
  }
  std::printf("\nRoom-to-room passages (>=10 s dwell), days 2-4:\n");
  table.print(std::cout);

  // 5. Table I (partial mission).
  std::printf("\nCrew sociometrics (normalized):\n");
  io::TextTable t1({"id", "company", "authority", "talking", "walking"});
  for (const auto& row : pipeline.table1()) {
    t1.add_row({std::string(1, row.id),
                row.has_social ? hs::format_fixed(row.company, 2) : std::string("n/a"),
                row.has_social ? hs::format_fixed(row.authority, 2) : std::string("n/a"),
                hs::format_fixed(row.talking, 2), hs::format_fixed(row.walking, 2)});
  }
  t1.print(std::cout);

  // 6. The observability dump: every metric the mission and pipeline
  //    touched, as one deterministic CSV (byte-identical per seed; see
  //    docs/OBSERVABILITY.md). Headline counters below; the full dump
  //    is runner.metrics().snapshot().to_csv().
  const obs::MetricsSnapshot metrics = runner.metrics().snapshot();
  std::printf("\nMission metrics (%zu registered):\n", runner.metrics().size());
  for (const char* name : {"sim.events_fired", "badge.sd_records_written",
                           "pipeline.records_attributed", "mission.days_run"}) {
    if (const auto* e = metrics.find(name)) {
      std::printf("  %-28s %llu\n", name,
                  static_cast<unsigned long long>(e->kind == 'g' ? e->value : e->count));
    }
  }

  // 7. The causal trace: every kernel event, badge slice, and pipeline
  //    shard as a span (docs/TRACING.md). The same dump feeds the
  //    hs_trace CLI: `hs_trace --input trace.csv --summarize`.
  const obs::TraceIndex trace(runner.tracer().spans());
  std::printf("\nCausal trace:\n%s", obs::format_summary(trace.summarize()).c_str());
  return 0;
}
