// latency_paths: trace-derived latency SLOs, regression-guarded.
//
//   latency_paths [seed=42] [days=2] [--baseline PATH] [--write-baseline]
//
// Runs the two canonical instrumented scenarios — "mesh-partition" (the
// hs_trace mission: partition faults, support fed from the mesh read
// view, alerts published back over the mesh) and "cascade-storm" (the
// cascade_storm phase-2 habitat) — and extracts the two end-to-end
// latency families from the causal trace (obs::TraceIndex::
// path_latencies): chunk offload -> ack and sensor record -> alert
// raise. Latencies are sim-time seconds, a pure function of (seed,
// days), so the p50/p99 numbers are exact and the regression gate can
// be tight.
//
// Each scenario runs four times: threads=1 and threads=hw at full
// sampling, then again at a 50 % trace-keep threshold. The serial and
// parallel trace dumps must be byte-identical at both thresholds (the
// docs/CONCURRENCY.md contract, now including the sampling decision),
// and every evidenced alert that survives sampling must report the same
// record -> raise latency as the full dump (the evidence span carries
// the record anchor inside the alert's own trace).
//
// Exit status: 0 ok; 1 on dump divergence, sampled-latency divergence,
// or usage errors; 2 when any p99 exceeds the checked-in baseline
// (BENCH_latency.json) by more than 10 %. The baseline only gates when
// its (seed, days) match the run. --write-baseline regenerates it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/campaign.hpp"
#include "mesh/read_view.hpp"
#include "obs/trace_query.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hs;
using bench::find_number;
using bench::report_diff;

constexpr const char* kScenarios[] = {"mesh-partition", "cascade-storm"};
constexpr double kGateFactor = 1.10;  ///< >10 % p99 regression -> exit 2

struct PassResult {
  std::string dump;
  obs::PathLatencies latencies;
};

/// One instrumented mission + analysis pass. The analysis pipeline runs
/// attached to the mission's tracer so the dump also covers the
/// pipeline-run/stage/shard spans the thread count could plausibly
/// perturb — that is what makes the serial-vs-hw byte check meaningful.
PassResult run_pass(const std::string& scenario, std::uint64_t seed, int days, unsigned threads,
                    std::uint32_t keep_millionths) {
  core::MissionConfig config;
  scenario::ExpandedScenario expanded;
  const bool storm = scenario == "cascade-storm";
  if (storm) {
    fleet::HabitatSpec spec;
    spec.seed = seed;
    spec.days = days;
    spec.cascade = "power-storm";
    config = fleet::make_mission_config(spec);
    const auto preset = scenario::scenario_preset(spec.cascade, seed);
    expanded = *scenario::expand_scenario(*preset, seed);
  } else {
    config.seed = seed;
    config.mesh.enabled = true;
    config.collect_from_mesh = true;
    config.fault_plan = faults::FaultPlan::mesh_partition();
    // Instrument from day 1 so short SLO runs still have badge data.
    config.script.badge_start_day = 1;
  }
  config.trace_keep_millionths = keep_millionths;

  core::MissionRunner runner(config);
  support::SupportSystem support;
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  if (storm) {
    runner.add_observer([&support, &expanded](const core::MissionView& view) {
      if (view.now == 0 || view.now % kDay != 0) return;
      expanded.coupling.apply_day(mission_day(view.now - 1), support.resources());
      support.end_of_day(view.now);
    });
  }
  runner.add_observer([&support, storm](const core::MissionView& view) {
    if (view.mesh == nullptr || view.now % minutes(5) != 0 || view.now == 0) return;
    if (!storm) {
      support.set_alert_sink([&view](const support::Alert& alert) {
        (void)view.mesh->publish_alert(view.mesh->base_station_id(), alert, view.now);
      });
    }
    const mesh::MeshReadView mesh_view(*view.mesh);
    for (const auto& health : mesh_view.health_snapshot(view.now, minutes(10))) {
      support.ingest_badge(health);
    }
    if (!storm) support.set_alert_sink(nullptr);
  });

  const core::Dataset dataset = runner.run_days(days);
  core::PipelineOptions options;
  options.threads = threads;
  options.metrics = &runner.metrics();
  options.tracer = &runner.tracer();
  const core::AnalysisPipeline pipeline(dataset, options);
  (void)pipeline;

  PassResult out;
  out.dump = runner.tracer().to_csv();
  const obs::TraceIndex index(runner.tracer().spans());
  out.latencies = index.path_latencies();
  return out;
}

struct ScenarioStats {
  std::string name;
  std::size_t offload_count = 0;
  double offload_p50 = 0.0;
  double offload_p99 = 0.0;
  std::size_t record_count = 0;
  double record_p50 = 0.0;
  double record_p99 = 0.0;
};

std::string baseline_json(std::uint64_t seed, int days, const std::vector<ScenarioStats>& stats) {
  std::string out;
  char buf[256];
  out += "{\n";
  out += "  \"comment\": \"sim-time latency SLO baseline for bench/latency_paths; "
         "regenerate with --write-baseline\",\n";
  std::snprintf(buf, sizeof buf, "  \"seed\": %llu,\n  \"days\": %d,\n",
                static_cast<unsigned long long>(seed), days);
  out += buf;
  out += "  \"regression_gate\": \"exit 2 when any p99 exceeds baseline by >10%\",\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const ScenarioStats& s = stats[i];
    out += "    {\n";
    std::snprintf(buf, sizeof buf, "      \"name\": \"%s\",\n", s.name.c_str());
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "      \"offload_to_ack_count\": %zu,\n"
                  "      \"offload_to_ack_p50_s\": %.3f,\n"
                  "      \"offload_to_ack_p99_s\": %.3f,\n",
                  s.offload_count, s.offload_p50, s.offload_p99);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "      \"record_to_raise_count\": %zu,\n"
                  "      \"record_to_raise_p50_s\": %.3f,\n"
                  "      \"record_to_raise_p99_s\": %.3f\n",
                  s.record_count, s.record_p50, s.record_p99);
    out += buf;
    out += i + 1 < stats.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#if !HS_OBS_ENABLED
  (void)argc;
  (void)argv;
  // The SLO is trace-derived: without the tracer there is nothing to
  // measure, and that is fine — the noobs preset proves the harness
  // degrades gracefully instead of failing the build.
  std::printf("# latency_paths: n/a (HS_OBS_ENABLED=0)\n");
  return 0;
#else
  std::uint64_t seed = 42;
  int days = 2;
  std::string baseline_path = "BENCH_latency.json";
  bool write_baseline = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (positional == 0) {
      seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      days = std::atoi(argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr,
                   "usage: latency_paths [seed] [days>=1] [--baseline PATH] [--write-baseline]\n");
      return 1;
    }
  }
  if (days < 1) {
    std::fprintf(stderr, "latency_paths: days must be >= 1\n");
    return 1;
  }

  // At least 4 workers even on small machines, so the serial-vs-parallel
  // byte check always exercises a real thread pool.
  const unsigned hw = std::max(4U, util::resolve_threads(0));
  constexpr std::uint32_t kHalf = obs::Tracer::kSampleScale / 2;
  std::printf("# latency_paths: seed %llu, %d day(s), hw threads %u\n",
              static_cast<unsigned long long>(seed), days, hw);

  std::vector<ScenarioStats> stats;
  for (const char* name : kScenarios) {
    const PassResult full = run_pass(name, seed, days, 1, obs::Tracer::kSampleScale);
    const PassResult full_hw = run_pass(name, seed, days, hw, obs::Tracer::kSampleScale);
    if (full.dump != full_hw.dump) {
      std::fprintf(stderr, "latency_paths: %s trace dump differs threads=1 vs threads=%u\n",
                   name, hw);
      report_diff(full.dump, full_hw.dump);
      return 1;
    }
    const PassResult half = run_pass(name, seed, days, 1, kHalf);
    const PassResult half_hw = run_pass(name, seed, days, hw, kHalf);
    if (half.dump != half_hw.dump) {
      std::fprintf(stderr,
                   "latency_paths: %s sampled (50%%) dump differs threads=1 vs threads=%u\n",
                   name, hw);
      report_diff(half.dump, half_hw.dump);
      return 1;
    }

    // Sampling must not bend the surviving measurements: every evidenced
    // alert kept at 50 % reports the exact full-dump latency.
    std::map<std::int64_t, double> by_alert;
    for (std::size_t i = 0; i < full.latencies.record_alert.size(); ++i) {
      by_alert[full.latencies.record_alert[i]] = full.latencies.record_to_raise_s[i];
    }
    for (std::size_t i = 0; i < half.latencies.record_alert.size(); ++i) {
      const std::int64_t alert = half.latencies.record_alert[i];
      const auto it = by_alert.find(alert);
      if (it == by_alert.end() || it->second != half.latencies.record_to_raise_s[i]) {
        std::fprintf(stderr,
                     "latency_paths: %s alert %lld record->raise latency diverges under "
                     "sampling (%.3f vs full %.3f)\n",
                     name, static_cast<long long>(alert), half.latencies.record_to_raise_s[i],
                     it == by_alert.end() ? -1.0 : it->second);
        return 1;
      }
    }

    ScenarioStats s;
    s.name = name;
    const fleet::DistStats offload = fleet::dist_stats(full.latencies.offload_to_ack_s);
    const fleet::DistStats record = fleet::dist_stats(full.latencies.record_to_raise_s);
    s.offload_count = offload.count;
    s.offload_p50 = offload.p50;
    s.offload_p99 = offload.p99;
    s.record_count = record.count;
    s.record_p50 = record.p50;
    s.record_p99 = record.p99;
    std::printf("%-16s offload->ack n=%-6zu p50 %8.1fs p99 %8.1fs | "
                "record->raise n=%-4zu p50 %8.1fs p99 %8.1fs\n",
                name, s.offload_count, s.offload_p50, s.offload_p99, s.record_count,
                s.record_p50, s.record_p99);
    std::printf("# %s: dumps byte-identical across thread counts (full %zu bytes, "
                "50%% sample %zu bytes), %zu/%zu evidenced alerts survive sampling\n",
                name, full.dump.size(), half.dump.size(), half.latencies.record_alert.size(),
                full.latencies.record_alert.size());
    stats.push_back(std::move(s));
  }

  if (write_baseline) {
    std::ofstream out(baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "latency_paths: cannot write %s\n", baseline_path.c_str());
      return 1;
    }
    out << baseline_json(seed, days, stats);
    std::printf("# wrote %s\n", baseline_path.c_str());
    return 0;
  }

  std::ifstream in(baseline_path, std::ios::binary);
  if (!in) {
    std::printf("# no baseline at %s; run with --write-baseline to create one\n",
                baseline_path.c_str());
    return 0;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string baseline = text.str();
  double base_seed = -1.0;
  double base_days = -1.0;
  if (!find_number(baseline, "seed", 0, base_seed) ||
      !find_number(baseline, "days", 0, base_days) ||
      base_seed != static_cast<double>(seed) || base_days != static_cast<double>(days)) {
    std::printf("# baseline %s is for seed %.0f / %.0f day(s); not gating this run\n",
                baseline_path.c_str(), base_seed, base_days);
    return 0;
  }
  int status = 0;
  for (const ScenarioStats& s : stats) {
    const std::size_t at = baseline.find("\"name\": \"" + s.name + "\"");
    if (at == std::string::npos) {
      std::printf("# baseline has no scenario %s; not gating it\n", s.name.c_str());
      continue;
    }
    const struct {
      const char* key;
      double current;
    } gates[] = {
        {"offload_to_ack_p99_s", s.offload_p99},
        {"record_to_raise_p99_s", s.record_p99},
    };
    for (const auto& gate : gates) {
      double base = 0.0;
      if (!find_number(baseline, gate.key, at, base)) continue;
      if (base > 0.0 && gate.current > base * kGateFactor) {
        std::fprintf(stderr, "latency_paths: %s %s regressed: %.3fs vs baseline %.3fs (>10%%)\n",
                     s.name.c_str(), gate.key, gate.current, base);
        status = 2;
      }
    }
  }
  if (status == 0) std::printf("# p99 latencies within 10%% of %s\n", baseline_path.c_str());
  return status;
#endif
}
