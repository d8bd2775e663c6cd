#include "faults/fault_injector.hpp"

#include "mesh/mesh.hpp"

namespace hs::faults {
namespace {

/// The beacon's mesh node, or nullptr when no mesh is running / the id is
/// not a mesh node (ids past the node list are legal in plans).
mesh::MeshNetwork* node_target(mesh::MeshNetwork* mesh, int id) {
  if (mesh == nullptr || id < 0 || static_cast<std::size_t>(id) >= mesh->nodes().size()) {
    return nullptr;
  }
  return mesh;
}

std::vector<mesh::NodeId> to_node_ids(const std::vector<int>& ids) {
  std::vector<mesh::NodeId> out;
  out.reserve(ids.size());
  for (const int id : ids) out.push_back(static_cast<mesh::NodeId>(id));
  return out;
}

/// Battery-death staging: charge fraction the failing cell sags to at
/// activation (below BadgeHealthMonitor's default 0.2 threshold), and how
/// long the sag lasts before the cell dies outright.
constexpr double kSagFraction = 0.1;
constexpr SimDuration kCollapse = minutes(15);

}  // namespace

void FaultInjector::arm(sim::Simulation& sim, badge::BadgeNetwork& network,
                        mesh::MeshNetwork* mesh, obs::Registry* metrics,
                        obs::FlightRecorder* recorder, obs::Tracer* tracer) {
  recorder_ = recorder;
  tracer_ = tracer;
  active_spans_.assign(plan_.faults().size(), 0);
  if (metrics != nullptr) {
    armed_metric_ = &metrics->counter("faults.armed");
    activated_metric_ = &metrics->counter("faults.activated");
    cleared_metric_ = &metrics->counter("faults.cleared");
  } else {
    armed_metric_ = activated_metric_ = cleared_metric_ = nullptr;
  }
  records_.clear();
  records_.reserve(plan_.faults().size());
  for (const FaultSpec& spec : plan_.faults()) {
    records_.push_back(FaultRecord{spec, -1, -1});
    const std::size_t idx = records_.size() - 1;
    if (armed_metric_) armed_metric_->inc();
    if (recorder_) {
      recorder_->record(sim.now(), obs::Subsys::kFaults, obs::EventCode::kFaultArmed,
                        static_cast<std::int64_t>(idx), static_cast<std::int64_t>(spec.kind));
    }
    if (tracer_) {
      tracer_->emit(tracer_->fault_trace(idx), obs::SpanKind::kFaultArmed, obs::Subsys::kFaults,
                    sim.now(), sim.now(), 0, static_cast<std::int64_t>(idx),
                    static_cast<std::int64_t>(spec.kind));
    }
    const auto badge_id = static_cast<io::BadgeId>(spec.badge);
    auto* net = &network;

    switch (spec.kind) {
      case FaultKind::kBatteryDeath:
        // Two-stage collapse: the cell sags below the health monitor's
        // low-battery threshold at `start` (the warning window a real
        // dying cell gives), then dies outright kCollapse later.
        sim.schedule_at(spec.start, [this, net, idx, badge_id, &sim] {
          badge::Badge* b = net->badge(badge_id);
          if (b == nullptr) return;
          b->battery().set_fraction(kSagFraction);
          // The cradle slot is flaky until recovery: docking draws RTC
          // current but does not charge, so the badge stays dark.
          if (records_[idx].spec.duration > 0) b->set_charge_inhibited(true);
          note_activated(idx, sim.now());
        });
        sim.schedule_at(spec.start + kCollapse, [net, badge_id] {
          if (badge::Badge* b = net->badge(badge_id)) b->battery().deplete();
        });
        if (spec.duration > 0) {
          sim.schedule_at(spec.start + spec.duration, [this, net, idx, badge_id, &sim] {
            badge::Badge* b = net->badge(badge_id);
            if (b == nullptr) return;
            b->set_charge_inhibited(false);
            // The crew re-seats the dead badge on the fixed slot: the wear
            // loop never docks a browned-out badge on its own, so this is
            // what restarts the overnight-recharge path.
            if (!b->docked()) b->dock(net->charging_station(), sim.now());
            note_cleared(idx, sim.now());
          });
        }
        break;

      case FaultKind::kSdWriteFailure:
        sim.schedule_at(spec.start, [this, net, idx, badge_id, &sim] {
          if (badge::Badge* b = net->badge(badge_id)) {
            b->sd().set_write_fault(true);
            note_activated(idx, sim.now());
          }
        });
        sim.schedule_at(spec.start + spec.duration, [this, net, idx, badge_id, &sim] {
          if (badge::Badge* b = net->badge(badge_id)) {
            b->sd().set_write_fault(false);
            note_cleared(idx, sim.now());
          }
        });
        break;

      case FaultKind::kBinlogTruncation:
        // Arms collection-time tail loss; the data is lost when the card
        // is pulled (MissionRunner applies it), not during the mission.
        sim.schedule_at(spec.start, [this, net, idx, badge_id, &sim] {
          if (badge::Badge* b = net->badge(badge_id)) {
            b->sd().set_tail_loss(records_[idx].spec.magnitude);
            note_activated(idx, sim.now());
          }
        });
        break;

      case FaultKind::kBeaconOutage:
        // The beacon and its mesh node share a power supply: an outage
        // silences the advertisements and wipes the node's volatile store.
        sim.schedule_at(spec.start, [this, net, mesh, idx, &sim] {
          const int beacon = records_[idx].spec.beacon;
          net->set_beacon_down(static_cast<io::BeaconId>(beacon), true);
          if (auto* m = node_target(mesh, beacon)) {
            m->set_node_down(static_cast<mesh::NodeId>(beacon), true);
          }
          note_activated(idx, sim.now());
        });
        sim.schedule_at(spec.start + spec.duration, [this, net, mesh, idx, &sim] {
          const int beacon = records_[idx].spec.beacon;
          net->set_beacon_down(static_cast<io::BeaconId>(beacon), false);
          if (auto* m = node_target(mesh, beacon)) {
            m->set_node_down(static_cast<mesh::NodeId>(beacon), false);
          }
          note_cleared(idx, sim.now());
        });
        break;

      case FaultKind::kRadioDegradation:
        sim.schedule_at(spec.start, [this, net, idx, &sim] {
          net->add_channel_loss(records_[idx].spec.band, records_[idx].spec.magnitude);
          note_activated(idx, sim.now());
        });
        sim.schedule_at(spec.start + spec.duration, [this, net, idx, &sim] {
          net->add_channel_loss(records_[idx].spec.band, -records_[idx].spec.magnitude);
          note_cleared(idx, sim.now());
        });
        break;

      case FaultKind::kClockStep:
        sim.schedule_at(spec.start, [this, net, idx, badge_id, &sim] {
          if (badge::Badge* b = net->badge(badge_id)) {
            b->apply_clock_step(records_[idx].spec.magnitude);
            note_activated(idx, sim.now());
          }
        });
        break;

      case FaultKind::kBadgeSwap:
        // The swap itself lives in the mission script (FaultPlan::
        // apply_to_script, folded in before the crew simulator is built);
        // these markers only book-keep the window for metrics.
        sim.schedule_at(day_start(spec.day), [this, idx, &sim] {
          note_activated(idx, sim.now());
        });
        sim.schedule_at(day_start(spec.day + 1), [this, idx, &sim] {
          note_cleared(idx, sim.now());
        });
        break;

      case FaultKind::kPartition:
        sim.schedule_at(spec.start, [this, mesh, idx, &sim] {
          if (mesh != nullptr) {
            mesh->add_partition(to_node_ids(records_[idx].spec.group_a),
                                to_node_ids(records_[idx].spec.group_b));
          }
          note_activated(idx, sim.now());
        });
        if (spec.duration > 0) {
          sim.schedule_at(spec.start + spec.duration, [this, mesh, idx, &sim] {
            if (mesh != nullptr) {
              mesh->remove_partition(to_node_ids(records_[idx].spec.group_a),
                                     to_node_ids(records_[idx].spec.group_b));
            }
            note_cleared(idx, sim.now());
          });
        }
        break;
    }
  }
}

void FaultInjector::note_activated(std::size_t idx, SimTime now) {
  records_[idx].activated_at = now;
  if (activated_metric_) activated_metric_->inc();
  if (recorder_) {
    recorder_->record(now, obs::Subsys::kFaults, obs::EventCode::kFaultActivated,
                      static_cast<std::int64_t>(idx),
                      static_cast<std::int64_t>(records_[idx].spec.kind));
  }
  if (tracer_) {
    // Open span across the fault window; permanent faults never close it,
    // which exports as an instant event (dur 0) with end_us = -1 in CSV.
    active_spans_[idx] = tracer_->begin(tracer_->fault_trace(idx), obs::SpanKind::kFaultActive,
                                        obs::Subsys::kFaults, now, 0,
                                        static_cast<std::int64_t>(idx),
                                        static_cast<std::int64_t>(records_[idx].spec.kind));
  }
}

void FaultInjector::note_cleared(std::size_t idx, SimTime now) {
  records_[idx].cleared_at = now;
  if (cleared_metric_) cleared_metric_->inc();
  if (recorder_) {
    recorder_->record(now, obs::Subsys::kFaults, obs::EventCode::kFaultCleared,
                      static_cast<std::int64_t>(idx),
                      static_cast<std::int64_t>(records_[idx].spec.kind));
  }
  if (tracer_ && active_spans_[idx] != 0) {
    tracer_->close(active_spans_[idx], now);
    active_spans_[idx] = 0;
  }
}

}  // namespace hs::faults
