#include "fleet/fleet_runner.hpp"

#include <algorithm>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "mesh/chunk.hpp"
#include "mesh/read_view.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"
#include "util/thread_pool.hpp"

namespace hs::fleet {
namespace {

std::uint64_t counter_value(const obs::MetricsSnapshot& snap, std::string_view name) {
  const obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0 : e->count;
}

/// Replication-ack latencies, per-badge offload gaps and dark badges,
/// read off the mesh's durability bookkeeping. Record chunks only (origin
/// below kNodeOriginBase): control items replicate everywhere and would
/// skew the badge-path distributions. traces() iterates in (origin, seq)
/// order, so per-origin consecutive entries are consecutive offloads.
///
/// A badge counts as dark when its last offload trails the habitat's last
/// offload activity by more than `stale_after` — relative to fleet
/// activity, not wall clock, so a mission ending with the whole crew
/// docked overnight does not read as twelve dead badges.
void collect_trace_stats(const mesh::MeshNetwork& mesh, SimDuration stale_after,
                         HabitatSummary& out) {
  mesh::OriginId last_origin = mesh::kNodeOriginBase;
  SimTime last_offload = 0;
  SimTime latest = 0;
  std::vector<SimTime> badge_last;  ///< last offload per badge, origin order
  for (const auto& [key, trace] : mesh.traces()) {
    if (key.origin >= mesh::kNodeOriginBase) continue;
    ++out.chunks_offloaded;
    if (trace.replicated_at >= 0) {
      ++out.chunks_acked;
      out.ack_latencies_s.push_back(
          static_cast<double>(trace.replicated_at - trace.offloaded_at) /
          static_cast<double>(kSecond));
    }
    if (key.origin == last_origin && !badge_last.empty()) {
      out.offload_gaps_s.push_back(static_cast<double>(trace.offloaded_at - last_offload) /
                                   static_cast<double>(kSecond));
      badge_last.back() = trace.offloaded_at;
    } else {
      badge_last.push_back(trace.offloaded_at);
    }
    last_origin = key.origin;
    last_offload = trace.offloaded_at;
    latest = std::max(latest, trace.offloaded_at);
  }
  for (const SimTime t : badge_last) {
    if (latest - t > stale_after) ++out.dark_badges;
  }
}

}  // namespace

void attach_support(core::MissionRunner& runner, support::SupportSystem& support,
                    const CampaignOptions& options, const scenario::ExpandedScenario* cascade) {
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  if (cascade != nullptr) {
    runner.add_observer([&support, cascade](const core::MissionView& view) {
      if (view.now == 0 || view.now % kDay != 0) return;
      if (view.mesh != nullptr) {
        support.set_alert_sink([&view](const support::Alert& alert) {
          (void)view.mesh->publish_alert(view.mesh->base_station_id(), alert, view.now);
        });
      }
      cascade->coupling.apply_day(mission_day(view.now - 1), support.resources());
      support.end_of_day(view.now);
      support.set_alert_sink(nullptr);
    });
  }
  const SimDuration cadence = options.support_cadence;
  const SimDuration stale_after = options.stale_after;
  runner.add_observer([&support, cadence, stale_after](const core::MissionView& view) {
    if (view.mesh == nullptr || view.now % cadence != 0 || view.now == 0) return;
    support.set_alert_sink([&view](const support::Alert& alert) {
      (void)view.mesh->publish_alert(view.mesh->base_station_id(), alert, view.now);
    });
    const mesh::MeshReadView mesh_view(*view.mesh);
    for (const auto& health : mesh_view.health_snapshot(view.now, stale_after)) {
      support.ingest_badge(health);
    }
    support.set_alert_sink(nullptr);
  });
}

HabitatSummary run_habitat(const HabitatSpec& spec, const CampaignOptions& options) {
  core::MissionRunner runner(make_mission_config(spec));
  support::SupportSystem support(support::SupportConfig{.crew_size = spec.crew});

  // Cascade scenario wiring: re-expand (pure, cheap next to the mission)
  // for the activation record and the resource coupling. The device
  // faults themselves are already in the runner's plan via
  // make_mission_config; here the coupling drains the ledger at each day
  // boundary so sustained cascades surface as shortage alerts, published
  // over the mesh like every other alert.
  scenario::ExpandedScenario cascade;
  const bool cascading = spec.cascade != "none";
  if (cascading) {
    if (auto scen = scenario::scenario_preset(spec.cascade, spec.seed); scen.has_value()) {
      if (auto expanded = scenario::expand_scenario(*scen, spec.seed); expanded.has_value()) {
        cascade = std::move(*expanded);
      }
    }
    runner.metrics().gauge("scenario.cascade_activations")
        .set(static_cast<double>(cascade.cascade.activations.size()));
    runner.metrics().gauge("scenario.cascade_dependents")
        .set(static_cast<double>(cascade.cascade.dependents));
    runner.metrics().gauge("scenario.cascade_repairs")
        .set(static_cast<double>(cascade.cascade.repairs));
  }
  attach_support(runner, support, options, cascading ? &cascade : nullptr);
  const core::Dataset dataset = runner.run_days(spec.days);

  HabitatSummary summary;
  summary.index = spec.index;
  summary.seed = spec.seed;
  summary.days = spec.days;
  summary.crew = spec.crew;
  summary.beacons = spec.beacons;
  summary.fault_preset = spec.fault_preset;
  summary.cascade = spec.cascade;
  summary.finished_at = static_cast<SimTime>(spec.days) * kDay;
  for (const auto& alert : support.alerts()) {
    summary.alert_counts[static_cast<std::size_t>(alert.kind)] += 1;
  }
  if (options.analyze) {
    // The habitat's own analysis pass (serial: the campaign already
    // shards one habitat per thread). The pipeline folds its pipeline.*
    // counters into the runner's registry, so the snapshot below — taken
    // after — carries them Earth-side.
    core::PipelineOptions popts;
    popts.threads = 1;
    popts.metrics = &runner.metrics();
    const core::AnalysisPipeline pipeline(dataset, popts);
    summary.records_analyzed =
        counter_value(runner.metrics().snapshot(), "pipeline.records_attributed");
  }
  summary.metrics = runner.report().metrics;
  summary.records_written = counter_value(summary.metrics, "badge.sd_records_written");
  if (const mesh::MeshNetwork* mesh = runner.mesh()) {
    collect_trace_stats(*mesh, options.stale_after, summary);
  }
  return summary;
}

Expected<FleetReport> run_campaign(const CampaignSpec& spec, const CampaignOptions& options) {
  if (auto ok = spec.validate(); !ok.ok()) return ok.error();
  const std::vector<HabitatSpec> habitats = spec.expand();

  // One habitat per shard, results into per-index slots only (the
  // docs/CONCURRENCY.md slot-write rule).
  std::vector<HabitatSummary> summaries(habitats.size());
  const unsigned threads = util::resolve_threads(options.threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  util::parallel_for(pool.get(), habitats.size(), [&](std::size_t i) {
    summaries[i] = run_habitat(habitats[i], options);
  });

  // Serial Earth-side fold, in habitat-index order: each habitat submits
  // at its own mission end, the 20-minute link delays delivery, and one
  // final pump after the last arrival drains the downlink.
  FleetAggregator aggregator(options.link_delay);
  SimTime latest = 0;
  for (auto& summary : summaries) {
    latest = std::max(latest, summary.finished_at);
    const SimTime at = summary.finished_at;
    aggregator.submit(at, std::move(summary));
  }
  (void)aggregator.pump(latest + aggregator.link_delay());
  return aggregator.report(spec.name);
}

}  // namespace hs::fleet
