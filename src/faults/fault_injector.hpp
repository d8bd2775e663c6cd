// Schedules a FaultPlan onto a running mission.
//
// The injector is armed once, before the first tick: every FaultSpec
// becomes one or two one-shot events on the simulation kernel (activation
// and, for windowed faults, recovery), which mutate the target device
// directly through the badge/beacon/radio fault hooks. Because arming is
// a pure function of the plan — no random draws, no wall clock — the same
// seed plus the same plan produces a byte-identical dataset at any thread
// count (docs/CONCURRENCY.md's guarantee is untouched: faults only change
// the data, not how it is analyzed).
#pragma once

#include <vector>

#include "badge/network.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace hs::mesh {
class MeshNetwork;
}

namespace hs::faults {

/// Per-fault lifecycle, filled in as the mission runs; the resilience
/// bench turns these into time-to-detection metrics.
struct FaultRecord {
  FaultSpec spec;
  SimTime activated_at = -1;  ///< -1 until the activation event fires
  SimTime cleared_at = -1;    ///< -1 until recovery (or forever, if none)
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Register every fault in the plan with the kernel. `sim` and `network`
  /// must outlive the injector's scheduled events (MissionRunner owns all
  /// three). Call once, before the mission's first tick. When a mesh is
  /// running, pass it too: beacon outages then also take down the beacon's
  /// mesh node (one power supply), and kPartition severs gossip links; a
  /// meshless mission ignores both (records are still book-kept).
  /// With `metrics`/`recorder`, arming registers `faults.armed` /
  /// `.activated` / `.cleared` counters and logs one fault-armed event per
  /// spec plus the activation/recovery transitions as they fire — the
  /// flight recorder's event log is the coverage proof that every planned
  /// fault was wired into the kernel (tests/faults_test.cpp). With a
  /// `tracer`, each fault also gets one trace: a fault-armed span at arm
  /// time and an open fault-active span across the activation..recovery
  /// window (left open forever for permanent faults).
  void arm(sim::Simulation& sim, badge::BadgeNetwork& network,
           mesh::MeshNetwork* mesh = nullptr, obs::Registry* metrics = nullptr,
           obs::FlightRecorder* recorder = nullptr, obs::Tracer* tracer = nullptr);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<FaultRecord>& records() const { return records_; }

 private:
  /// Record-keeping shared by every activation/recovery lambda.
  void note_activated(std::size_t idx, SimTime now);
  void note_cleared(std::size_t idx, SimTime now);

  FaultPlan plan_;
  std::vector<FaultRecord> records_;
  obs::Counter* armed_metric_ = nullptr;
  obs::Counter* activated_metric_ = nullptr;
  obs::Counter* cleared_metric_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Open kFaultActive span per fault index (0 when not yet activated).
  std::vector<obs::SpanId> active_spans_;
};

}  // namespace hs::faults
