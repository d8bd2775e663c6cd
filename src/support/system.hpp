// The assembled mission support system.
//
// Wires the anomaly detectors, the resource ledger, the delayed Earth
// link, the consensus authority and the ability-based interface into one
// component that ingests the live badge feature stream and accumulates
// alerts + deliveries. This is the Section VI system running *during* the
// mission, as opposed to the offline AnalysisPipeline.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "support/ability.hpp"
#include "support/anomaly.hpp"
#include "support/badge_health.hpp"
#include "support/consensus.hpp"
#include "support/earthlink.hpp"
#include "support/resources.hpp"

namespace hs::support {

struct SupportConfig {
  SimDuration earth_delay = minutes(20);
  double resource_warn_days = 4.0;
  int crew_size = 6;
};

class SupportSystem {
 public:
  explicit SupportSystem(SupportConfig config = {});

  /// Ingest one crew member's feature sample for the current second.
  void ingest(const CrewFeature& feature);

  /// Ingest one badge's vitals for the current second. Sensor faults must
  /// degrade the system, not crash it: a dead badge raises kBatteryLow /
  /// kSensorLoss here while every other detector keeps serving the crew
  /// members that are still instrumented.
  void ingest_badge(const BadgeHealth& health);

  /// Close the current second (run gathering/day-boundary logic).
  void end_of_second(SimTime now);

  /// Daily housekeeping: consume resources, forecast shortages.
  void end_of_day(SimTime now);

  // --- sub-systems ----------------------------------------------------------
  [[nodiscard]] ResourceLedger& resources() { return resources_; }
  [[nodiscard]] DelayedChannel<Command>& uplink() { return uplink_; }     // Earth -> habitat
  [[nodiscard]] ConflictMonitor& conflicts() { return conflicts_; }
  [[nodiscard]] ChangeAuthority& changes() { return changes_; }
  [[nodiscard]] InterfaceAdapter& interface_adapter() { return adapter_; }
  [[nodiscard]] BadgeHealthMonitor& badge_health() { return badge_health_; }

  /// Pump arrived uplink commands through the conflict monitor.
  void poll_uplink(SimTime now);

  /// Forward every alert, as it is raised, to an external channel as well
  /// (e.g. mesh::MeshNetwork::publish_alert, so dissemination keeps
  /// working when the base station dies). The sink sees each alert once,
  /// after local routing; it must not call back into the SupportSystem.
  void set_alert_sink(std::function<void(const Alert&)> sink) { alert_sink_ = std::move(sink); }

  /// All alerts raised so far, in order.
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  /// Interface deliveries corresponding to the alerts.
  [[nodiscard]] const std::vector<Delivery>& deliveries() const { return deliveries_; }

  [[nodiscard]] std::size_t alert_count(AlertKind kind) const;

  /// Register the support counters (`support.alerts_raised`, `.deliveries`,
  /// `.health_transitions`) plus the ChangeAuthority's ballot counters, and
  /// log each raised alert to `recorder`. With a `tracer`, every alert
  /// additionally opens a causal trace: an alert-raised root span, one
  /// evidence span per badge-health alert citing the mesh chunk whose
  /// vitals tripped the monitor, one delivery span per routed modality,
  /// and the root pushed as context around the alert sink so external
  /// publishes (mesh dissemination) link back to the alert that caused
  /// them. Any argument may be null; all must outlive this system.
  void set_metrics(obs::Registry* registry, obs::FlightRecorder* recorder,
                   obs::Tracer* tracer = nullptr);

 private:
  void route_new_alerts(std::size_t from_index);

  SupportConfig config_;
  std::vector<std::unique_ptr<AnomalyDetector>> detectors_;
  ResourceLedger resources_;
  DelayedChannel<Command> uplink_;
  ConflictMonitor conflicts_;
  ChangeAuthority changes_;
  InterfaceAdapter adapter_;
  BadgeHealthMonitor badge_health_;
  std::vector<Alert> alerts_;
  std::vector<Delivery> deliveries_;
  std::function<void(const Alert&)> alert_sink_;
  obs::Counter* alerts_metric_ = nullptr;
  obs::Counter* deliveries_metric_ = nullptr;
  obs::Counter* health_transitions_metric_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Mesh chunk (origin, seq) behind the badge-health sample currently
  /// being ingested; (-1, -1) outside ingest_badge or for direct-feed
  /// samples. Evidence spans for kBatteryLow/kSensorLoss read this.
  std::pair<std::int64_t, std::int64_t> pending_evidence_{-1, -1};
  /// When that chunk's vitals were recorded (BadgeHealth::t). The
  /// evidence span starts here, so the record→raise latency is readable
  /// from the alert's own trace even when the chunk's trace is sampled
  /// out of the dump.
  SimTime pending_evidence_time_ = -1;
};

}  // namespace hs::support
