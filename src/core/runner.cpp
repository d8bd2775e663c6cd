#include "core/runner.hpp"

#include <utility>

#include "mesh/read_view.hpp"

namespace hs::core {
namespace {

Vec2 charging_station_position(const habitat::Habitat& habitat) {
  // The charging station sits in a bedroom corner: badges are docked
  // overnight and picked up after waking.
  const auto& bedroom = habitat.room(habitat::RoomId::kBedroom).bounds;
  return bedroom.clamp(Vec2{bedroom.lo.x + 0.6, bedroom.lo.y + 0.6}, 0.3);
}

/// Script-level faults must land before the crew simulator fixes the
/// ownership schedules, so fold the plan into the script first.
MissionConfig with_fault_plan_applied(MissionConfig config) {
  config.fault_plan.apply_to_script(config.script);
  return config;
}

}  // namespace

MissionRunner::MissionRunner(MissionConfig config)
    : config_(with_fault_plan_applied(std::move(config))),
      tracer_(config_.seed),
      habitat_(habitat::Habitat::lunares()),
      rng_(config_.seed),
      network_(habitat_, beacon::deploy_lunares_beacons(habitat_, config_.beacon_count),
               charging_station_position(habitat_), config_.ble_channel,
               config_.subghz_channel),
      crew_(habitat_, network_, config_.script, config_.seed),
      injector_(config_.fault_plan) {
  // Metrics first: arming below schedules kernel events that should count.
  sim_.set_metrics(&obs_);
  sim_.set_trace(&tracer_);
  recorder_.set_dropped_counter(&obs_.counter("hs.obs.flight_dropped_total"));
  tracer_.set_drop_metrics(&obs_);
  tracer_.set_sampling(config_.trace_keep_millionths);
  network_.set_environment(crew_.environment());
  if (config_.mesh.enabled) {
    // The base-station node sits at the charging station (where the real
    // deployment's collection point was); beacon nodes reuse their
    // beacon's position and id, so a beacon outage takes both down.
    mesh_ = std::make_unique<mesh::MeshNetwork>(habitat_, network_.beacons(),
                                                network_.charging_station(), config_.mesh,
                                                config_.seed);
    mesh_->attach(&network_);
    mesh_->set_metrics(&obs_, &recorder_);
    mesh_->set_trace(&tracer_);
    mesh_->arm(sim_);
  }
  injector_.arm(sim_, network_, mesh_.get(), &obs_, &recorder_, &tracer_);

  // Crew badges 0..5: imperfect oscillators, stale counters at boot.
  Rng clock_rng = rng_.fork(0xc10c);
  for (io::BadgeId id = 0; id < 6; ++id) {
    const double drift = clock_rng.normal(0.0, config_.clock_drift_sigma_ppm);
    const auto offset = static_cast<std::uint32_t>(clock_rng.uniform_int(0, 600'000));
    network_.add_badge(id, timesync::DriftingClock(0, drift, offset), config_.badge_params);
  }
  // The reference badge defines the reference timeline (zero drift, zero
  // offset): rectified milliseconds == mission milliseconds.
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0), config_.badge_params);
  // Backup badges: docked spares.
  for (int i = 0; i < config_.backup_badges; ++i) {
    const auto id = static_cast<io::BadgeId>(io::kReferenceBadge + 1 + i);
    const double drift = clock_rng.normal(0.0, config_.clock_drift_sigma_ppm);
    network_.add_badge(id, timesync::DriftingClock(0, drift, 0), config_.badge_params);
  }

  // Every card feeds the same fleet-wide write/drop counters. take_sd()
  // detaches a card before it leaves the runner.
  obs::Counter& sd_writes = obs_.counter("badge.sd_records_written");
  obs::Counter& sd_failures = obs_.counter("badge.sd_write_failures");
  for (const auto& b : network_.badges()) {
    network_.badge(b->id())->sd().set_metrics(&sd_writes, &sd_failures);
  }
}

MissionRunner::~MissionRunner() = default;

void MissionRunner::add_observer(std::function<void(const MissionView&)> observer) {
  observers_.push_back(std::move(observer));
}

Dataset MissionRunner::run() { return run_days(config_.script.mission_days); }

Dataset MissionRunner::run_days(int last_day) {
  Rng tick_rng = rng_.fork(0x71c4);
  const SimTime end = day_start(last_day + 1);
  MissionView view{0, &crew_, &network_, mesh_.get()};
  for (SimTime t = 0; t < end; t += kSecond) {
    sim_.run_until(t);  // fault activations/recoveries + gossip rounds land first
    crew_.tick(t);
    network_.tick(t, tick_rng);
    if (mesh_) mesh_->tick(t);
    if (!observers_.empty()) {
      view.now = t;
      for (auto& obs : observers_) obs(view);
    }
  }
  // Mission over: badges ship whatever is still unshipped before the
  // cards are pulled (the mesh equivalent of walking to the collection
  // point one last time).
  if (mesh_) mesh_->flush(sim_.now());

  std::map<io::BadgeId, badge::SdCard> mesh_cards;
  if (mesh_ && config_.collect_from_mesh) {
    mesh_cards = mesh::MeshReadView(*mesh_, &tracer_, sim_.now()).rebuild_cards();
  }

  Dataset ds;
  ds.habitat = habitat_;
  ds.beacons = network_.beacons();
  ds.total_bytes = network_.total_bytes();
  obs::Counter& binlog_bytes = obs_.counter("badge.binlog_bytes_collected");
  obs::Counter& truncated = obs_.counter("badge.sd_records_truncated");
  for (const auto& b : network_.badges()) {
    BadgeLog log;
    log.id = b->id();
    if (mesh_ && config_.collect_from_mesh) {
      // Collection-time card faults (tail truncation) cannot bite here:
      // chunks already replicated into the mesh are off the card.
      log.card = std::move(mesh_cards[log.id]);
    } else {
      log.card = network_.badge(b->id())->take_sd();
      // Binlog-truncation faults bite at collection: the tail of the card
      // never makes it off the badge.
      truncated.inc(log.card.apply_tail_loss());
    }
    binlog_bytes.inc(static_cast<std::uint64_t>(log.card.bytes_written()));
    ds.logs.push_back(std::move(log));
  }
  obs_.gauge("mission.days_run").set(static_cast<double>(last_day));
  obs_.gauge("mission.badge_count").set(static_cast<double>(ds.logs.size()));
  ds.ownership = crew_.corrected_ownership();
  ds.naive_ownership = crew_.naive_ownership();
  ds.script = config_.script;
  if (last_day < ds.script.mission_days) ds.script.mission_days = last_day;
  ds.surveys = crew::generate_mission_surveys(ds.script, rng_.fork(0x50b7));
  return ds;
}

Dataset run_icares_mission(std::uint64_t seed) {
  MissionConfig config;
  config.seed = seed;
  MissionRunner runner(config);
  return runner.run();
}

}  // namespace hs::core
