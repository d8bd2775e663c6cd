// Analysis-pipeline throughput, serial vs parallel, gated on an absolute
// records/sec baseline.
//
// Two modes:
//
//   perf_pipeline [seed] [threads] [reps]
//     Runs the canonical ICAres-1 mission once, then times the complete
//     analysis — AnalysisPipeline construction (rectify + attribute +
//     derive) plus artifacts() (every paper figure/table) — at threads=1
//     and threads=N, best of `reps`, printing records/sec and the thread
//     speedup. Every artifact field (Fig. 2 cells, Fig. 3 grids, Fig. 4/6
//     series, Table I rows, dataset, dwell, pair and survey statistics)
//     and the metrics/trace dumps must be equal serial vs parallel; any
//     difference exits 1. When BENCH_pipeline.json (read from the working
//     directory) holds a mission baseline for this seed, serial
//     records/sec more than 25 % below it exits 2; a baseline value that
//     is not a number exits 1 before the mission runs. scripts/ci.sh runs
//     this mode per push.
//
//   Every number on the command line is one whole token (hs::parse_number)
//   and reps is at least 1; anything else exits 1, naming the argument,
//   before any mission runs or baseline is read.
//
//   perf_pipeline --large [records] [reps] [seed]
//     Builds a synthetic dataset of ~`records` records (default one
//     million: 6 badges x 13 instrumented days x 3 streams at an even
//     cadence inside 08:00-22:00 worn windows) and times pipeline
//     construction only — the attribute/derive hot path the RecordBatch
//     layout targets — at threads=1, best of `reps`. The derived outputs
//     (tracks, speech intervals, Fig. 4 walking) of a threads=4 pipeline
//     must equal the serial ones; a difference exits 1.
//     docs/PERFORMANCE.md explains how to read the output.
//
// Note: thread speedup is bounded by the host's core count — on a
// single-core container threads=N times the same work and the ratio
// prints ~1.0x.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {

using hs::bench::report_diff;
using hs::bench::seconds_since;
using hs::core::AnalysisPipeline;
using hs::core::PipelineOptions;

constexpr const char* kBaselinePath = "BENCH_pipeline.json";

struct Timed {
  double seconds = 0.0;
  AnalysisPipeline::Artifacts artifacts;
  /// Deterministic observability dumps, byte-identical for every thread
  /// count.
  std::string metrics_csv;
  std::string trace_csv;
};

Timed run_full(const hs::core::Dataset& data, unsigned threads) {
  hs::obs::Registry registry;
  hs::obs::Tracer tracer;
  const auto t0 = std::chrono::steady_clock::now();
  PipelineOptions opts;
  opts.threads = threads;
  opts.metrics = &registry;
  opts.tracer = &tracer;
  const AnalysisPipeline pipeline(data, opts);
  Timed out;
  out.artifacts = pipeline.artifacts();
  out.seconds = seconds_since(t0);
  out.metrics_csv = registry.snapshot().to_csv();
  out.trace_csv = tracer.to_csv();
  return out;
}

Timed best_full(const hs::core::Dataset& data, unsigned threads, int reps) {
  Timed best = run_full(data, threads);
  for (int r = 1; r < reps; ++r) {
    Timed t = run_full(data, threads);
    if (t.seconds < best.seconds) best = std::move(t);
  }
  return best;
}

bool series_equal(const AnalysisPipeline::DailySeries& a, const AnalysisPipeline::DailySeries& b) {
  return a.first_day == b.first_day && a.values == b.values;
}

/// Names of the artifact fields that differ between `a` and `b`, compared
/// exactly: every cell, grid, series value, row field and statistic.
std::vector<std::string> artifact_diffs(const AnalysisPipeline::Artifacts& a,
                                        const AnalysisPipeline::Artifacts& b) {
  std::vector<std::string> diffs;
  const auto check = [&diffs](const char* name, bool same) {
    if (!same) diffs.emplace_back(name);
  };
  check("fig2", a.fig2.counts() == b.fig2.counts());
  bool fig3 = a.fig3.size() == b.fig3.size();
  for (std::size_t i = 0; fig3 && i < a.fig3.size(); ++i) {
    fig3 = a.fig3[i].total_seconds() == b.fig3[i].total_seconds() &&
           a.fig3[i].grid_rows() == b.fig3[i].grid_rows();
  }
  check("fig3", fig3);
  check("fig4", series_equal(a.fig4, b.fig4));
  check("fig6", series_equal(a.fig6, b.fig6));
  bool table1 = a.table1.size() == b.table1.size();
  for (std::size_t i = 0; table1 && i < a.table1.size(); ++i) {
    const auto& x = a.table1[i];
    const auto& y = b.table1[i];
    table1 = x.id == y.id && x.has_social == y.has_social && x.company == y.company &&
             x.authority == y.authority && x.talking == y.talking && x.walking == y.walking;
  }
  check("table1", table1);
  check("dataset", a.dataset.total_gib == b.dataset.total_gib &&
                       a.dataset.worn_of_daytime == b.dataset.worn_of_daytime &&
                       a.dataset.active_of_daytime == b.dataset.active_of_daytime &&
                       a.dataset.worn_by_day == b.dataset.worn_by_day &&
                       a.dataset.total_records == b.dataset.total_records);
  check("dwell", a.dwell.typical_biolab_h == b.dwell.typical_biolab_h &&
                     a.dwell.typical_office_h == b.dwell.typical_office_h &&
                     a.dwell.typical_workshop_h == b.dwell.typical_workshop_h);
  check("pairs", a.pairs.af_private_h == b.pairs.af_private_h &&
                     a.pairs.de_private_h == b.pairs.de_private_h &&
                     a.pairs.af_meetings_h == b.pairs.af_meetings_h &&
                     a.pairs.de_meetings_h == b.pairs.de_meetings_h);
  check("survey", a.survey.wellbeing_speech_corr == b.survey.wellbeing_speech_corr &&
                      a.survey.comfort_slope_per_day == b.survey.comfort_slope_per_day &&
                      a.survey.responses == b.survey.responses);
  return diffs;
}

std::size_t dataset_records(const hs::core::Dataset& data) {
  std::size_t n = 0;
  for (const auto& log : data.logs) n += log.card.record_count();
  return n;
}

/// Synthetic dataset for the --large mode: the canonical crew/habitat
/// shape (6 badges, days 2..14, 27 beacons, per-day ownership) with
/// record counts scaled to `target_records` instead of the mission
/// simulator's rates. Identity clock fits (no sync samples), one worn
/// window 08:00-22:00 per badge-day, rng-jittered features.
hs::core::Dataset make_synthetic(std::size_t target_records, std::uint64_t seed) {
  using namespace hs;
  core::Dataset data;
  data.habitat = habitat::Habitat::lunares();
  data.beacons = beacon::deploy_lunares_beacons(data.habitat);
  data.script = crew::MissionScript{};
  const int first = data.script.badge_start_day;
  const int last = data.script.mission_days;
  const auto ndays = static_cast<std::size_t>(last - first + 1);
  const std::size_t per_stream =
      std::max<std::size_t>(1, target_records / (crew::kCrewSize * ndays * 3));
  Rng rng(seed);
  for (std::size_t b = 0; b < crew::kCrewSize; ++b) {
    core::BadgeLog log;
    log.id = static_cast<io::BadgeId>(b);
    for (int day = first; day <= last; ++day) {
      data.ownership.assign(log.id, day, b);
      data.naive_ownership.assign(log.id, day, b);
      const auto day_ms = static_cast<std::uint32_t>(day_start(day) / 1000);
      const std::uint32_t worn_on = day_ms + 8U * 3600U * 1000U;
      const std::uint32_t worn_off = day_ms + 22U * 3600U * 1000U;
      log.card.log(io::WearEvent{worn_on, log.id, io::WearState::kWorn});
      const double step_ms =
          static_cast<double>(worn_off - worn_on) / static_cast<double>(per_stream);
      for (std::size_t k = 0; k < per_stream; ++k) {
        const auto t =
            static_cast<io::LocalMs>(worn_on + static_cast<std::uint32_t>(
                                                   static_cast<double>(k) * step_ms));
        io::MotionFrame m;
        m.t = t;
        m.badge = log.id;
        m.accel_var = static_cast<float>(rng.uniform(0.0, 3.0));
        m.step_freq_hz =
            rng.bernoulli(0.3) ? static_cast<float>(rng.uniform(0.5, 3.5)) : 0.0F;
        log.card.log(m);
        io::AudioFrame a;
        a.t = t;
        a.badge = log.id;
        a.level_db = static_cast<float>(rng.uniform(35.0, 75.0));
        a.voiced_fraction = static_cast<float>(rng.uniform(0.0, 1.0));
        a.dominant_f0_hz =
            rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(90.0, 260.0)) : 0.0F;
        log.card.log(a);
        io::BeaconObs o;
        o.t = t;
        o.badge = log.id;
        o.beacon = data.beacons[(b + k) % data.beacons.size()].id;
        o.rssi_dbm = static_cast<std::int8_t>(-40 - static_cast<int>(rng.uniform(0.0, 50.0)));
        log.card.log(o);
      }
      log.card.log(io::WearEvent{worn_off, log.id, io::WearState::kOff});
    }
    data.total_bytes += static_cast<std::int64_t>(log.card.record_count()) * 16;
    data.logs.push_back(std::move(log));
  }
  return data;
}

struct Assembled {
  double seconds = 0.0;
  std::vector<std::vector<hs::locate::RoomStay>> tracks;
  std::vector<std::vector<hs::dsp::SpeechInterval>> speech;
  AnalysisPipeline::DailySeries fig4;

  [[nodiscard]] bool operator==(const Assembled& o) const {
    return tracks == o.tracks && speech == o.speech && series_equal(fig4, o.fig4);
  }
};

/// Time pipeline construction only (the attribute/derive hot path), then
/// pull the derived outputs for the equality gate (untimed).
Assembled assemble_once(const hs::core::Dataset& data, unsigned threads) {
  const auto t0 = std::chrono::steady_clock::now();
  PipelineOptions opts;
  opts.threads = threads;
  const AnalysisPipeline pipeline(data, opts);
  Assembled out;
  out.seconds = seconds_since(t0);
  out.tracks = pipeline.tracks();
  for (std::size_t i = 0; i < hs::crew::kCrewSize; ++i) {
    out.speech.push_back(pipeline.speech_intervals(i));
  }
  out.fig4 = pipeline.fig4_walking();
  return out;
}

int run_large(std::size_t records, int reps, std::uint64_t seed) {
  std::printf("# synthetic dataset: ~%zu records, seed %llu\n", records,
              static_cast<unsigned long long>(seed));
  const auto data = make_synthetic(records, seed);
  const std::size_t total = dataset_records(data);
  std::printf("built %zu records across %zu badges\n", total, data.logs.size());
  std::printf("timing pipeline construction (rectify+attribute+derive), best of %d\n\n", reps);

  Assembled serial = assemble_once(data, 1);
  for (int r = 1; r < reps; ++r) {
    Assembled t = assemble_once(data, 1);
    if (t.seconds < serial.seconds) serial = std::move(t);
  }
  const bool same = serial == assemble_once(data, 4);
  std::printf("  threads=1  %8.3f s  %12.0f records/s\n", serial.seconds,
              static_cast<double>(total) / serial.seconds);
  std::printf("  threads=1 == threads=4: %s\n", same ? "ok" : "MISMATCH");
  return same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using hs::bench::parse_arg;
  if (argc > 1 && std::strcmp(argv[1], "--large") == 0) {
    const std::size_t records =
        argc > 2 ? parse_arg<std::uint64_t>(argv, 2, "records", 1) : 1000000;
    const int reps = argc > 3 ? parse_arg(argv, 3, "reps", 1) : 3;
    const std::uint64_t seed = argc > 4 ? parse_arg<std::uint64_t>(argv, 4, "seed", 0) : 42;
    return run_large(records, reps, seed);
  }

  const std::uint64_t seed = hs::bench::seed_from_args(argc, argv);
  const unsigned threads = argc > 2 ? static_cast<unsigned>(parse_arg(argv, 2, "threads", 0)) : 4;
  const int reps = argc > 3 ? parse_arg(argv, 3, "reps", 1) : 3;
  const double base_rate = hs::bench::baseline_rate(kBaselinePath, "serial_records_per_s",
                                                    {{"seed", static_cast<double>(seed)}},
                                                    "seed " + std::to_string(seed));
  const auto data = hs::bench::run_mission(argc, argv);
  const unsigned resolved = hs::util::resolve_threads(threads);
  const std::size_t total = dataset_records(data);

  std::printf("host hardware_concurrency: %u\n", std::thread::hardware_concurrency());
  std::printf("timing full analysis (pipeline + all artifacts), best of %d\n\n", reps);

  const Timed serial = best_full(data, 1, reps);
  const double serial_rate = static_cast<double>(total) / serial.seconds;
  std::printf("  threads=1   %8.3f s  %12.0f records/s\n", serial.seconds, serial_rate);
  const Timed par = best_full(data, threads, reps);
  std::printf("  threads=%-3u %8.3f s  %12.0f records/s\n", resolved, par.seconds,
              static_cast<double>(total) / par.seconds);
  std::printf("\n  thread speedup: %.2fx\n", serial.seconds / par.seconds);

  const auto diffs = artifact_diffs(serial.artifacts, par.artifacts);
  std::printf("  serial == parallel, every artifact field: %s",
              diffs.empty() ? "ok" : "MISMATCH in");
  for (const auto& d : diffs) std::printf(" %s", d.c_str());
  std::printf("\n");
  // The pipeline.* metrics/trace dumps are part of the determinism
  // contract: byte-identical across thread counts.
  const bool dumps = serial.metrics_csv == par.metrics_csv && serial.trace_csv == par.trace_csv;
  std::printf("  metrics/trace dumps byte-identical: %s\n", dumps ? "ok" : "MISMATCH");
  if (serial.metrics_csv != par.metrics_csv) report_diff(serial.metrics_csv, par.metrics_csv);
  if (serial.trace_csv != par.trace_csv) report_diff(serial.trace_csv, par.trace_csv);
  if (!diffs.empty() || !dumps) return 1;
  return hs::bench::gate_on_baseline(base_rate, serial_rate, kBaselinePath, "records/s",
                                     "analysis");
}
