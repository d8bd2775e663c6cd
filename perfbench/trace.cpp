// perfbench_trace: the traced run of one workload, for the per-layer
// numbers.
//
//   perfbench_trace --workload calm-fleet|storm-fleet|icares-replay
//                   --seed N --seconds S [--spans FILE]
//
// It drives the same per-second mission loop as core::MissionRunner, built
// from the layers' public classes (as bench/perf_micro's world tick does),
// with the support wiring fleet::run_habitat installs. Around each public
// call it reads the clock once and charges the interval to that call's
// layer; radio, propagation, beacon and timesync work runs inside
// BadgeNetwork::tick and is charged to the badge layer, binlog encoding
// runs inside the mesh offload and is charged to the mesh.
//
// Every habitat (and the ICAres-1 mission and every sweep variant) also
// runs once untraced through the library entry points. The traced copy
// must reproduce the untraced counts exactly — records written, chunks
// offloaded and acked, alerts by kind, records attributed — and the same
// output digests, or the operation is reported as failed. The gap between
// the traced and untraced wall time is reported as tracing overhead.
//
// Spans (one per habitat, per phase and per analysis call) are kept in
// memory and written to --spans when the run ends. The first stdout line
// is the number of operations the run attempts; the last is a JSON object
// with the per-layer totals and counts, which run.py turns into the
// benchmark's per-layer metrics.
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "beacon/beacon.hpp"
#include "crew/survey.hpp"
#include "mesh/read_view.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hs;

// --- per-layer accounting -------------------------------------------------------

enum Layer : std::size_t {
  kBadge,
  kCrew,
  kGossip,
  kKernel,
  kOffload,
  kRead,
  kSupport,
  kExpand,
  kReport,
  kFold,
  kAssemble,
  kFig2,
  kFig3,
  kFig4,
  kFig6,
  kMeetings,
  kTimeline,
  kStats,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerMetric = {
    "badge.tick_s",      "crew.tick_s",      "mesh.gossip_s",  "sim.kernel_s",
    "mesh.offload_s",    "mesh.read_s",      "support.ingest_s", "scenario.expand_s",
    "obs.report_s",      "fleet.fold_s",     "core.assemble_s", "locate.fig2_s",
    "locate.fig3_s",     "dsp.fig4_s",       "dsp.fig6_s",     "sna.meetings_s",
    "core.timeline_s",   "core.stats_s",
};

/// Per-layer busy time. Each timed call costs one clock read: the interval
/// since the previous read is charged to the layer of the call that just
/// returned. skip() starts a new interval without charging the old one.
class Meter {
 public:
  void skip() { last_ = Clock::now(); }
  void charge(Layer layer) {
    const auto now = Clock::now();
    total_[layer] += now - last_;
    last_ = now;
  }
  [[nodiscard]] double seconds(Layer layer) const {
    return std::chrono::duration<double>(total_[layer]).count();
  }
  [[nodiscard]] double attributed() const {
    double sum = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) sum += seconds(static_cast<Layer>(l));
    return sum;
  }

 private:
  Clock::time_point last_ = Clock::now();
  std::array<Clock::duration, kLayerCount> total_{};
};

/// Spans kept in memory, written out once at the end: id, parent, name,
/// start, end and self time (duration minus the time its children cover).
class SpanLog {
 public:
  std::size_t open(std::string name, std::size_t parent) {
    spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
    return spans_.size();
  }
  void close(std::size_t id) { spans_[id - 1].end = Clock::now(); }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const auto& s : spans_) child[s.parent] += seconds_between(s.start, s.end);
    std::ofstream out(path);
    out << "id,parent,name,start_s,end_s,self_s\n";
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double dur = seconds_between(s.start, s.end);
      out << i + 1 << ',' << s.parent << ',' << s.name << ',' << seconds_between(origin, s.start)
          << ',' << seconds_between(origin, s.end) << ',' << dur - child[i + 1] << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// Exact counts summed over the run.
struct Counts {
  std::uint64_t badge_records = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t chunks_replicated = 0;
  std::uint64_t digest_bytes = 0;
  std::uint64_t seq_holes = 0;
  std::uint64_t faults_activated = 0;
  std::uint64_t offload_deferrals = 0;
  std::uint64_t chunks_offloaded = 0;
  std::uint64_t chunks_acked = 0;
  std::uint64_t alerts = 0;
  std::uint64_t spans_stored = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t records_attributed = 0;
};

// --- the mission, wired from the layers -------------------------------------------

Vec2 charging_station_position(const habitat::Habitat& habitat) {
  const auto& bedroom = habitat.room(habitat::RoomId::kBedroom).bounds;
  return bedroom.clamp(Vec2{bedroom.lo.x + 0.6, bedroom.lo.y + 0.6}, 0.3);
}

core::MissionConfig with_fault_plan_applied(core::MissionConfig config) {
  config.fault_plan.apply_to_script(config.script);
  return config;
}

/// core::MissionRunner's objects and wiring, member for member.
struct World {
  explicit World(core::MissionConfig cfg)
      : config(with_fault_plan_applied(std::move(cfg))),
        tracer(config.seed),
        habitat(habitat::Habitat::lunares()),
        rng(config.seed),
        network(habitat, beacon::deploy_lunares_beacons(habitat, config.beacon_count),
                charging_station_position(habitat), config.ble_channel, config.subghz_channel),
        crew(habitat, network, config.script, config.seed),
        injector(config.fault_plan) {
    sim.set_metrics(&obs);
    sim.set_trace(&tracer);
    recorder.set_dropped_counter(&obs.counter("hs.obs.flight_dropped_total"));
    tracer.set_drop_metrics(&obs);
    tracer.set_sampling(config.trace_keep_millionths);
    network.set_environment(crew.environment());
    if (config.mesh.enabled) {
      mesh = std::make_unique<mesh::MeshNetwork>(habitat, network.beacons(),
                                                 network.charging_station(), config.mesh,
                                                 config.seed);
      mesh->attach(&network);
      mesh->set_metrics(&obs, &recorder);
      mesh->set_trace(&tracer);
      mesh->arm(sim);
    }
    injector.arm(sim, network, mesh.get(), &obs, &recorder, &tracer);

    Rng clock_rng = rng.fork(0xc10c);
    for (io::BadgeId id = 0; id < 6; ++id) {
      const double drift = clock_rng.normal(0.0, config.clock_drift_sigma_ppm);
      const auto offset = static_cast<std::uint32_t>(clock_rng.uniform_int(0, 600'000));
      network.add_badge(id, timesync::DriftingClock(0, drift, offset), config.badge_params);
    }
    network.add_reference_badge(timesync::DriftingClock(0, 0.0, 0), config.badge_params);
    for (int i = 0; i < config.backup_badges; ++i) {
      const auto id = static_cast<io::BadgeId>(io::kReferenceBadge + 1 + i);
      const double drift = clock_rng.normal(0.0, config.clock_drift_sigma_ppm);
      network.add_badge(id, timesync::DriftingClock(0, drift, 0), config.badge_params);
    }
    obs::Counter& sd_writes = obs.counter("badge.sd_records_written");
    obs::Counter& sd_failures = obs.counter("badge.sd_write_failures");
    for (const auto& b : network.badges()) {
      network.badge(b->id())->sd().set_metrics(&sd_writes, &sd_failures);
    }
  }

  core::MissionConfig config;
  obs::Registry obs;
  obs::FlightRecorder recorder;
  obs::Tracer tracer;
  habitat::Habitat habitat;
  Rng rng;
  badge::BadgeNetwork network;
  crew::CrewSimulator crew;
  sim::Simulation sim;
  std::unique_ptr<mesh::MeshNetwork> mesh;
  faults::FaultInjector injector;
};

/// The support wiring of fleet::run_habitat, called once per simulated
/// second after the mesh tick.
struct SupportHooks {
  support::SupportSystem* support = nullptr;
  const scenario::ExpandedScenario* cascade = nullptr;  ///< null: no cascade
  SimDuration cadence = 0;
  SimDuration stale_after = 0;
};

void publish_alerts_to_mesh(support::SupportSystem& support, mesh::MeshNetwork* mesh,
                            SimTime now) {
  if (mesh == nullptr) return;
  support.set_alert_sink([mesh, now](const support::Alert& alert) {
    (void)mesh->publish_alert(mesh->base_station_id(), alert, now);
  });
}

/// core::MissionRunner::run_days, timed layer by layer.
core::Dataset run_days(World& w, int last_day, const SupportHooks* hooks, Meter& meter,
                       SpanLog& spans, std::size_t parent) {
  Rng tick_rng = w.rng.fork(0x71c4);
  const SimTime end = day_start(last_day + 1);
  mesh::MeshNetwork* mesh = w.mesh.get();
  const std::size_t mission_span = spans.open("mission", parent);
  meter.skip();
  for (SimTime t = 0; t < end; t += kSecond) {
    const std::uint64_t round = mesh != nullptr ? mesh->round() : 0;
    w.sim.run_until(t);
    meter.charge(mesh != nullptr && mesh->round() != round ? kGossip : kKernel);
    w.crew.tick(t);
    meter.charge(kCrew);
    w.network.tick(t, tick_rng);
    meter.charge(kBadge);
    if (mesh != nullptr) {
      mesh->tick(t);
      meter.charge(kOffload);
    }
    if (hooks == nullptr || t == 0) continue;
    support::SupportSystem& support = *hooks->support;
    if (hooks->cascade != nullptr && t % kDay == 0) {
      publish_alerts_to_mesh(support, mesh, t);
      hooks->cascade->coupling.apply_day(mission_day(t - 1), support.resources());
      support.end_of_day(t);
      support.set_alert_sink(nullptr);
      meter.charge(kSupport);
    }
    if (mesh != nullptr && t % hooks->cadence == 0) {
      publish_alerts_to_mesh(support, mesh, t);
      const std::vector<support::BadgeHealth> health =
          mesh::MeshReadView(*mesh).health_snapshot(t, hooks->stale_after);
      meter.charge(kRead);
      for (const auto& h : health) support.ingest_badge(h);
      support.set_alert_sink(nullptr);
      meter.charge(kSupport);
    }
  }
  spans.close(mission_span);

  const std::size_t collect_span = spans.open("collect", parent);
  if (mesh != nullptr) {
    mesh->flush(w.sim.now());
    meter.charge(kOffload);
  }
  std::map<io::BadgeId, badge::SdCard> mesh_cards;
  if (mesh != nullptr && w.config.collect_from_mesh) {
    mesh_cards = mesh::MeshReadView(*mesh, &w.tracer, w.sim.now()).rebuild_cards();
    meter.charge(kRead);
  }
  core::Dataset ds;
  ds.habitat = w.habitat;
  ds.beacons = w.network.beacons();
  ds.total_bytes = w.network.total_bytes();
  obs::Counter& binlog_bytes = w.obs.counter("badge.binlog_bytes_collected");
  obs::Counter& truncated = w.obs.counter("badge.sd_records_truncated");
  for (const auto& b : w.network.badges()) {
    core::BadgeLog log;
    log.id = b->id();
    if (mesh != nullptr && w.config.collect_from_mesh) {
      log.card = std::move(mesh_cards[log.id]);
    } else {
      log.card = w.network.badge(b->id())->take_sd();
      truncated.inc(log.card.apply_tail_loss());
    }
    binlog_bytes.inc(static_cast<std::uint64_t>(log.card.bytes_written()));
    ds.logs.push_back(std::move(log));
  }
  w.obs.gauge("mission.days_run").set(static_cast<double>(last_day));
  w.obs.gauge("mission.badge_count").set(static_cast<double>(ds.logs.size()));
  ds.ownership = w.crew.corrected_ownership();
  ds.naive_ownership = w.crew.naive_ownership();
  ds.script = w.config.script;
  if (last_day < ds.script.mission_days) ds.script.mission_days = last_day;
  ds.surveys = crew::generate_mission_surveys(ds.script, w.rng.fork(0x50b7));
  meter.skip();
  spans.close(collect_span);
  return ds;
}

// --- fleets -----------------------------------------------------------------------

/// Badge origins whose sequence numbers, merged over every live node,
/// have a gap: a chunk that lost its only replica before gossip copied it.
std::uint64_t seq_holes(const mesh::MeshNetwork& mesh) {
  std::map<mesh::OriginId, mesh::SeqSet> merged;
  for (const auto& node : mesh.nodes()) {
    if (node.down()) continue;
    for (const auto& [origin, seqs] : node.version_vector()) {
      if (origin < mesh::kNodeOriginBase) merged[origin].merge(seqs);
    }
  }
  std::uint64_t holes = 0;
  for (const auto& [origin, seqs] : merged) holes += seqs.extras().empty() ? 0 : 1;
  return holes;
}

/// fleet::run_habitat's read-off of the mesh's durability bookkeeping
/// (ack latencies, per-badge offload gaps, dark badges).
void collect_trace_stats(const mesh::MeshNetwork& mesh, SimDuration stale_after,
                         fleet::HabitatSummary& out) {
  mesh::OriginId last_origin = mesh::kNodeOriginBase;
  SimTime last_offload = 0;
  SimTime latest = 0;
  std::vector<SimTime> badge_last;
  for (const auto& [key, trace] : mesh.traces()) {
    if (key.origin >= mesh::kNodeOriginBase) continue;
    ++out.chunks_offloaded;
    if (trace.replicated_at >= 0) {
      ++out.chunks_acked;
      out.ack_latencies_s.push_back(static_cast<double>(trace.replicated_at - trace.offloaded_at) /
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

/// fleet::run_habitat, timed layer by layer.
fleet::HabitatSummary traced_habitat(const fleet::HabitatSpec& spec,
                                     const fleet::CampaignOptions& options, Meter& meter,
                                     Counts& counts, SpanLog& spans) {
  const std::size_t habitat_span = spans.open("habitat-" + std::to_string(spec.index), 0);
  const std::size_t setup_span = spans.open("setup", habitat_span);
  meter.skip();
  core::MissionConfig config = fleet::make_mission_config(spec);
  meter.charge(kExpand);
  World w(std::move(config));
  support::SupportSystem support(support::SupportConfig{.crew_size = spec.crew});
  support.set_metrics(&w.obs, &w.recorder, &w.tracer);
  meter.skip();

  scenario::ExpandedScenario cascade;
  SupportHooks hooks{&support, nullptr, options.support_cadence, options.stale_after};
  if (spec.cascade != "none") {
    if (auto scen = scenario::scenario_preset(spec.cascade, spec.seed); scen.has_value()) {
      if (auto expanded = scenario::expand_scenario(*scen, spec.seed); expanded.has_value()) {
        cascade = std::move(*expanded);
      }
    }
    meter.charge(kExpand);
    w.obs.gauge("scenario.cascade_activations")
        .set(static_cast<double>(cascade.cascade.activations.size()));
    w.obs.gauge("scenario.cascade_dependents").set(static_cast<double>(cascade.cascade.dependents));
    w.obs.gauge("scenario.cascade_repairs").set(static_cast<double>(cascade.cascade.repairs));
    hooks.cascade = &cascade;
  }
  spans.close(setup_span);

  const core::Dataset dataset = run_days(w, spec.days, &hooks, meter, spans, habitat_span);

  fleet::HabitatSummary summary;
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
  meter.skip();
  if (options.analyze) {
    const std::size_t analysis_span = spans.open("analysis", habitat_span);
    core::PipelineOptions popts;
    popts.threads = 1;
    popts.metrics = &w.obs;
    const core::AnalysisPipeline pipeline(dataset, popts);
    meter.charge(kAssemble);
    summary.records_analyzed = counter_value(w.obs.snapshot(), "pipeline.records_attributed");
    meter.charge(kReport);
    spans.close(analysis_span);
  }
  const std::size_t report_span = spans.open("report", habitat_span);
  // MissionRunner::report(): snapshot, catalog, flight log and trace dump.
  const obs::MetricsSnapshot snap = w.obs.snapshot();
  const std::string metrics_csv = snap.to_csv();
  const std::string flight_csv = w.recorder.to_csv();
  const std::string trace_csv = w.tracer.to_csv();
  summary.metrics = snap;
  summary.records_written = counter_value(summary.metrics, "badge.sd_records_written");
  meter.charge(kReport);
  if (w.mesh != nullptr) {
    collect_trace_stats(*w.mesh, options.stale_after, summary);
    meter.charge(kFold);
  }
  spans.close(report_span);

  counts.badge_records += summary.records_written;
  counts.chunks_offloaded += summary.chunks_offloaded;
  counts.chunks_acked += summary.chunks_acked;
  counts.alerts += support.alerts().size();
  counts.records_attributed += summary.records_analyzed;
  counts.spans_stored += w.tracer.size();
  counts.spans_dropped += w.tracer.dropped_count();
  for (const auto& record : w.injector.records()) {
    counts.faults_activated += record.activated_at >= 0 ? 1 : 0;
  }
  if (w.mesh != nullptr) {
    const mesh::GossipStats& stats = w.mesh->stats();
    counts.exchanges += stats.exchanges;
    counts.chunks_replicated += stats.chunks_replicated;
    counts.digest_bytes += static_cast<std::uint64_t>(stats.digest_bytes);
    counts.offload_deferrals += stats.offload_deferrals;
    counts.seq_holes += seq_holes(*w.mesh);
  }
  spans.close(habitat_span);
  meter.skip();
  return summary;
}

/// The per-habitat counts the traced copy must reproduce; empty when equal.
std::string compare_summaries(const fleet::HabitatSummary& untraced,
                              const fleet::HabitatSummary& traced) {
  const std::string at = " (habitat " + std::to_string(traced.index) + ")";
  if (untraced.records_written != traced.records_written) return "records written" + at;
  if (untraced.chunks_offloaded != traced.chunks_offloaded) return "chunks offloaded" + at;
  if (untraced.chunks_acked != traced.chunks_acked) return "chunks acked" + at;
  if (untraced.alert_counts != traced.alert_counts) return "alerts by kind" + at;
  if (untraced.records_analyzed != traced.records_analyzed) return "records attributed" + at;
  return "";
}

fleet::FleetReport fold(std::vector<fleet::HabitatSummary> summaries,
                        const fleet::CampaignOptions& options, const std::string& name) {
  fleet::FleetAggregator aggregator(options.link_delay);
  SimTime latest = 0;
  for (auto& summary : summaries) {
    latest = std::max(latest, summary.finished_at);
    const SimTime at = summary.finished_at;
    aggregator.submit(at, std::move(summary));
  }
  (void)aggregator.pump(latest + aggregator.link_delay());
  return aggregator.report(name);
}

struct RunTotals {
  double traced_s = 0.0;
  double untraced_s = 0.0;
};

void run_fleet(const Args& args, Meter& meter, Counts& counts, SpanLog& spans,
               std::vector<JsonLine>& ops, RunTotals& totals) {
  auto spec = fleet::CampaignSpec::parse(campaign_text(args.workload, args.seed, args.seconds));
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench_trace: %s\n", spec.error().message.c_str());
    std::exit(1);
  }
  const fleet::CampaignOptions options = campaign_options();
  std::vector<fleet::HabitatSummary> untraced;
  std::vector<fleet::HabitatSummary> traced;
  std::string problem;
  for (const auto& habitat : spec->expand()) {
    const auto a = Clock::now();
    untraced.push_back(fleet::run_habitat(habitat, options));
    const auto b = Clock::now();
    traced.push_back(traced_habitat(habitat, options, meter, counts, spans));
    const auto c = Clock::now();
    totals.untraced_s += seconds_between(a, b);
    totals.traced_s += seconds_between(b, c);
    if (problem.empty()) problem = compare_summaries(untraced.back(), traced.back());
  }
  const fleet::FleetReport reference = fold(std::move(untraced), options, spec->name);

  const std::size_t fold_span = spans.open("fold", 0);
  const auto start = Clock::now();
  meter.skip();
  fleet::FleetReport report = fold(std::move(traced), options, spec->name);
  meter.charge(kFold);
  totals.traced_s += seconds_between(start, Clock::now());
  spans.close(fold_span);

  if (args.perturb) report.alerts_total += 1;
  const std::string digest = report_digest(report);
  if (problem.empty() && digest != report_digest(reference)) problem = "campaign report digest";
  if (problem.empty()) problem = check_report(report, spec->habitats, spec->days.front());
  ops.push_back(op_line(campaign_op(*spec), static_cast<std::uint64_t>(spec->habitats), digest,
                        problem));
}

// --- ICAres-1 replay ------------------------------------------------------------------

/// The gate's sweep variant, one timed public call at a time.
VariantOutput traced_variant(const core::Dataset& dataset, const SweepVariant& variant,
                             obs::Registry& registry, Meter& meter, SpanLog& spans) {
  const std::size_t variant_span = spans.open("variant-" + variant.name, 0);
  auto timed = [&](const char* name, Layer layer, auto&& call) {
    const std::size_t id = spans.open(name, variant_span);
    meter.skip();
    call();
    meter.charge(layer);
    spans.close(id);
  };
  core::PipelineOptions options = variant.options;
  options.metrics = &registry;
  std::unique_ptr<core::AnalysisPipeline> pipeline;
  timed("assemble", kAssemble,
        [&] { pipeline = std::make_unique<core::AnalysisPipeline>(dataset, options); });
  const core::AnalysisPipeline& p = *pipeline;
  VariantOutput out;
  auto& a = out.artifacts;
  timed("fig2", kFig2, [&] { a.fig2 = p.fig2_transitions(); });
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    timed("fig3", kFig3, [&] { a.fig3.push_back(p.fig3_heatmap(i)); });
  }
  timed("fig4", kFig4, [&] { a.fig4 = p.fig4_walking(); });
  timed("fig6", kFig6, [&] { a.fig6 = p.fig6_speech(); });
  timed("stats", kStats, [&] {
    a.table1 = p.table1();
    a.dataset = p.dataset_stats();
    a.dwell = p.dwell_stats();
    a.pairs = p.pair_stats();
    a.survey = p.survey_validation();
  });
  for (int day = dataset.first_day(); day <= dataset.last_day(); ++day) {
    timed("fig5", kTimeline, [&] { out.timelines.push_back(p.fig5_timeline(day)); });
    timed("meetings", kMeetings, [&] {
      for (const auto& meeting : p.meetings_on(day)) {
        out.dynamics.push_back(p.meeting_dynamics(meeting));
        out.meetings.push_back(meeting);
      }
    });
  }
  timed("gap_report", kStats, [&] { out.gaps = p.gap_report(); });
  timed("teardown", kAssemble, [&] { pipeline.reset(); });
  spans.close(variant_span);
  return out;
}

void run_icares(const Args& args, Meter& meter, Counts& counts, SpanLog& spans,
                std::vector<JsonLine>& ops, RunTotals& totals) {
  const core::MissionConfig config = icares_config(args.seed);
  const int days = icares_days(args.seconds);
  const std::vector<SweepVariant> variants = sweep_variants(args.seconds);

  // Untraced first, one dataset in memory at a time.
  std::uint64_t untraced_records = 0;
  std::string untraced_dataset;
  std::vector<std::string> untraced_digests;
  std::vector<std::uint64_t> untraced_attributed;
  {
    const auto start = Clock::now();
    core::MissionRunner runner(config);
    const core::Dataset dataset = runner.run_days(days);
    totals.untraced_s += seconds_between(start, Clock::now());
    untraced_records = counter_value(runner.metrics().snapshot(), "badge.sd_records_written");
    untraced_dataset = dataset_digest(dataset);
    for (const auto& variant : variants) {
      obs::Registry registry;
      const auto a = Clock::now();
      core::PipelineOptions options = variant.options;
      options.metrics = &registry;
      const VariantOutput out = run_variant(dataset, options);
      totals.untraced_s += seconds_between(a, Clock::now());
      untraced_digests.push_back(variant_digest(out));
      untraced_attributed.push_back(
          counter_value(registry.snapshot(), "pipeline.records_attributed"));
    }
  }

  const auto start = Clock::now();
  const std::size_t habitat_span = spans.open("habitat-0", 0);
  const std::size_t setup_span = spans.open("setup", habitat_span);
  auto world = std::make_unique<World>(config);
  spans.close(setup_span);
  core::Dataset dataset = run_days(*world, days, nullptr, meter, spans, habitat_span);
  const std::uint64_t records = counter_value(world->obs.snapshot(), "badge.sd_records_written");
  world.reset();
  spans.close(habitat_span);
  totals.traced_s += seconds_between(start, Clock::now());
  counts.badge_records += records;

  if (args.perturb) dataset.total_bytes += 1;
  const std::string digest = dataset_digest(dataset);
  if (args.perturb) dataset.total_bytes -= 1;
  std::string problem;
  if (records != untraced_records) problem = "records written";
  if (problem.empty() && digest != untraced_dataset) problem = "dataset digest";
  if (problem.empty() && dataset_records(dataset) == 0) problem = "no records";
  ops.push_back(op_line("mission-d" + std::to_string(days), 1, digest, problem));

  for (std::size_t i = 0; i < variants.size(); ++i) {
    obs::Registry registry;
    const auto a = Clock::now();
    const VariantOutput out = traced_variant(dataset, variants[i], registry, meter, spans);
    totals.traced_s += seconds_between(a, Clock::now());
    const std::uint64_t attributed =
        counter_value(registry.snapshot(), "pipeline.records_attributed");
    counts.records_attributed += attributed;
    const std::string vdigest = variant_digest(out);
    std::string vproblem;
    if (attributed != untraced_attributed[i]) vproblem = "records attributed";
    if (vproblem.empty() && vdigest != untraced_digests[i]) vproblem = "variant digest";
    if (vproblem.empty()) vproblem = check_variant(out);
    ops.push_back(op_line("variant-d" + std::to_string(days) + "-" + variants[i].name, 1, vdigest,
                          vproblem));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  print_planned(args);
  Meter meter;
  Counts counts;
  SpanLog spans;
  std::vector<JsonLine> ops;
  RunTotals totals;
  if (args.workload == Workload::kIcaresReplay) {
    run_icares(args, meter, counts, spans, ops, totals);
  } else {
    run_fleet(args, meter, counts, spans, ops, totals);
  }
  spans.write(args.spans);

  JsonLine layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    layers.field(kLayerMetric[l], meter.seconds(static_cast<Layer>(l)));
  }
  JsonLine c;
  c.field("badge.records", counts.badge_records)
      .field("mesh.exchanges", counts.exchanges)
      .field("mesh.chunks_replicated", counts.chunks_replicated)
      .field("mesh.digest_bytes", counts.digest_bytes)
      .field("mesh.seq_holes", counts.seq_holes)
      .field("faults.activated", counts.faults_activated)
      .field("mesh.offload_deferrals", counts.offload_deferrals)
      .field("mesh.chunks_offloaded", counts.chunks_offloaded)
      .field("mesh.chunks_acked", counts.chunks_acked)
      .field("support.alerts", counts.alerts)
      .field("obs.spans_stored", counts.spans_stored)
      .field("obs.spans_dropped", counts.spans_dropped)
      .field("core.records_attributed", counts.records_attributed);
  JsonLine out;
  out.field("workload", workload_name(args.workload))
      .field("seed", args.seed)
      .field("traced_s", totals.traced_s)
      .field("untraced_s", totals.untraced_s)
      .field("attributed_s", meter.attributed())
      .object("layers", layers)
      .object("counts", c)
      .array("ops", ops);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
