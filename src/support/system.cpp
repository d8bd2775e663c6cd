#include "support/system.hpp"

namespace hs::support {
namespace {

std::vector<VoterId> all_voters(int crew_size) {
  std::vector<VoterId> voters;
  for (int i = 0; i < crew_size; ++i) voters.push_back(static_cast<VoterId>(i));
  voters.push_back(kMissionControl);
  return voters;
}

}  // namespace

SupportSystem::SupportSystem(SupportConfig config)
    : config_(config),
      resources_(ResourceLedger::icares_default(config.crew_size)),
      uplink_(config.earth_delay),
      changes_(all_voters(config.crew_size)),
      adapter_(icares_ability_profiles()) {
  detectors_.push_back(std::make_unique<DehydrationDetector>());
  detectors_.push_back(std::make_unique<PassivityDetector>());
  detectors_.push_back(std::make_unique<GroupTensionDetector>());
  // Planned communal windows: meals and the evening briefing.
  detectors_.push_back(std::make_unique<UnplannedGatheringDetector>(
      std::vector<std::pair<SimDuration, SimDuration>>{
          {hours(8), hours(8) + minutes(40)},
          {hours(12) + minutes(30), hours(13) + minutes(10)},
          {hours(19), hours(19) + minutes(40)},
          {hours(21), hours(21) + minutes(40)},
      }));
}

void SupportSystem::route_new_alerts(std::size_t from_index) {
  for (std::size_t i = from_index; i < alerts_.size(); ++i) {
    const Alert& alert = alerts_[i];
    const auto routed = adapter_.broadcast(alert);
    deliveries_.insert(deliveries_.end(), routed.begin(), routed.end());
    if (alerts_metric_) alerts_metric_->inc();
    if (deliveries_metric_) deliveries_metric_->inc(routed.size());
    if (recorder_) {
      recorder_->record(alert.time, obs::Subsys::kSupport, obs::EventCode::kAlertRaised,
                        static_cast<std::int64_t>(alert.kind),
                        alert.astronaut ? static_cast<std::int64_t>(*alert.astronaut) : -1);
    }
    obs::SpanId raised = 0;
    if (tracer_) {
      const obs::TraceId trace = tracer_->alert_trace(i);
      raised = tracer_->emit(trace, obs::SpanKind::kAlertRaised, obs::Subsys::kSupport,
                             alert.time, alert.time, 0, static_cast<std::int64_t>(i),
                             static_cast<std::int64_t>(alert.kind),
                             alert.astronaut ? static_cast<std::int64_t>(*alert.astronaut) : -1);
      // Badge-health alerts were tripped by one specific offloaded chunk;
      // cite it so hs_trace --critical-path can walk record -> alert. The
      // span covers [record time, cite time]: the record anchor must live
      // in the alert's own trace, or head-based sampling of the chunk's
      // trace would take the latency measurement with it.
      if ((alert.kind == AlertKind::kBatteryLow || alert.kind == AlertKind::kSensorLoss) &&
          pending_evidence_.first >= 0) {
        const SimTime recorded =
            pending_evidence_time_ >= 0 ? pending_evidence_time_ : alert.time;
        tracer_->emit(trace, obs::SpanKind::kAlertEvidence, obs::Subsys::kSupport, recorded,
                      alert.time, raised, pending_evidence_.first, pending_evidence_.second);
      }
      for (const auto& d : routed) {
        tracer_->emit(trace, obs::SpanKind::kAlertDelivered, obs::Subsys::kSupport, alert.time,
                      alert.time, raised, static_cast<std::int64_t>(d.astronaut),
                      d.modality ? static_cast<std::int64_t>(*d.modality) : -1);
      }
    }
    if (alert_sink_) {
      // The raise is the causal context of whatever the sink does (mesh
      // publishes pick it up as their cross-trace link).
      if (tracer_) tracer_->push_context(raised);
      alert_sink_(alert);
      if (tracer_) tracer_->pop_context();
    }
  }
}

void SupportSystem::ingest(const CrewFeature& feature) {
  const std::size_t before = alerts_.size();
  for (auto& d : detectors_) d->ingest(feature, alerts_);
  route_new_alerts(before);
}

void SupportSystem::ingest_badge(const BadgeHealth& health) {
  const std::size_t before = alerts_.size();
  badge_health_.observe(health, alerts_);
  // Every alert the health monitor emits marks a badge state transition
  // (healthy -> battery-low / sensor-loss and the recovery edges).
  if (health_transitions_metric_) health_transitions_metric_->inc(alerts_.size() - before);
  pending_evidence_ = {health.source_origin, health.source_seq};
  pending_evidence_time_ = health.t;
  route_new_alerts(before);
  pending_evidence_ = {-1, -1};
  pending_evidence_time_ = -1;
}

void SupportSystem::end_of_second(SimTime now) {
  const std::size_t before = alerts_.size();
  for (auto& d : detectors_) d->end_of_second(now, alerts_);
  changes_.tick(now);
  route_new_alerts(before);
}

void SupportSystem::end_of_day(SimTime now) {
  const std::size_t before = alerts_.size();
  resources_.consume_day(config_.crew_size);
  resources_.check(now, config_.crew_size, config_.resource_warn_days, alerts_);
  route_new_alerts(before);
}

void SupportSystem::poll_uplink(SimTime now) {
  const std::size_t before = alerts_.size();
  for (const auto& command : uplink_.receive(now)) {
    conflicts_.process(now, command, alerts_);
  }
  route_new_alerts(before);
}

void SupportSystem::set_metrics(obs::Registry* registry, obs::FlightRecorder* recorder,
                                obs::Tracer* tracer) {
  recorder_ = recorder;
  tracer_ = tracer;
  if (registry == nullptr) {
    alerts_metric_ = deliveries_metric_ = health_transitions_metric_ = nullptr;
    changes_.set_metrics(nullptr, nullptr, tracer);
    return;
  }
  alerts_metric_ = &registry->counter("support.alerts_raised");
  deliveries_metric_ = &registry->counter("support.deliveries");
  health_transitions_metric_ = &registry->counter("support.health_transitions");
  changes_.set_metrics(registry, recorder, tracer);
}

std::size_t SupportSystem::alert_count(AlertKind kind) const {
  std::size_t n = 0;
  for (const auto& a : alerts_) n += a.kind == kind ? 1 : 0;
  return n;
}

}  // namespace hs::support
