// MissionRunner: wires habitat + beacons + badges + crew into the
// simulation kernel and runs the full ICAres-1 mission, producing the
// Dataset the offline pipeline analyses.
#pragma once

#include <cstdint>
#include <functional>

#include <memory>

#include "badge/network.hpp"
#include "core/dataset.hpp"
#include "crew/crew_sim.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "mesh/mesh.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace hs::core {

struct MissionConfig {
  std::uint64_t seed = 42;
  crew::MissionScript script{};
  int beacon_count = 27;
  int backup_badges = 6;      ///< spares; stay docked unless needed
  badge::BadgeParams badge_params{};
  /// Crew badge oscillator error std-dev (ppm). Tens of ppm accumulate to
  /// tens of seconds over two weeks; the reference badge defines t=0.
  double clock_drift_sigma_ppm = 28.0;
  /// Radio channel models (overridable for ablations, e.g. removing the
  /// metal-wall shielding that makes room classification near-perfect).
  habitat::ChannelParams ble_channel = habitat::kBleChannel;
  habitat::ChannelParams subghz_channel = habitat::kSubGhzChannel;
  /// Scripted faults injected into the mission (empty: the happy path).
  /// Script-level faults (the badge swap) are folded into `script` before
  /// the crew simulator is built; device faults fire from the event queue.
  faults::FaultPlan fault_plan{};
  /// In-habitat data plane (mesh.enabled turns it on): beacons + base
  /// station as replicating storage nodes, badges offloading binlog
  /// chunks, gossip anti-entropy between nodes.
  mesh::MeshConfig mesh{};
  /// Collect the dataset from the mesh's merged read view instead of
  /// pulling SD cards (requires mesh.enabled). Fault-free this is
  /// byte-identical to direct collection; under faults it yields whatever
  /// the surviving mesh holds — notably, binlog tail truncation cannot
  /// touch chunks that were already replicated.
  bool collect_from_mesh = false;
  /// Head-based trace sampling threshold in millionths (obs::Tracer::
  /// kSampleScale keeps everything): whole trace-id stories are kept or
  /// dropped together, so a sampled dump stays byte-identical across
  /// thread counts. The fleet layer's `trace_sample` axis sets this.
  std::uint32_t trace_keep_millionths = 1'000'000;
};

/// Live view handed to per-tick observers (support system, examples).
struct MissionView {
  SimTime now = 0;
  const crew::CrewSimulator* crew = nullptr;
  const badge::BadgeNetwork* network = nullptr;
  /// Non-null when the mission runs a mesh; observers may publish control
  /// items (alerts, ballots) but must leave record offloading to the tick.
  mesh::MeshNetwork* mesh = nullptr;
};

class MissionRunner {
 public:
  explicit MissionRunner(MissionConfig config = {});
  ~MissionRunner();
  MissionRunner(const MissionRunner&) = delete;
  MissionRunner& operator=(const MissionRunner&) = delete;

  /// Observe every simulated second (real-time consumers like the mission
  /// support system). Register before run().
  void add_observer(std::function<void(const MissionView&)> observer);

  /// Run the whole mission and collect the dataset.
  [[nodiscard]] Dataset run();

  /// Run only through the end of `last_day` (tests, partial replays).
  [[nodiscard]] Dataset run_days(int last_day);

  [[nodiscard]] const MissionConfig& config() const { return config_; }
  [[nodiscard]] const habitat::Habitat& habitat() const { return habitat_; }
  /// Fault lifecycle so far (activation/recovery instants per fault).
  [[nodiscard]] const faults::FaultInjector& faults() const { return injector_; }
  /// The data plane, if config.mesh.enabled (nullptr otherwise). Mutable
  /// so tests and benches can drive extra gossip rounds after the run.
  [[nodiscard]] mesh::MeshNetwork* mesh() { return mesh_.get(); }
  [[nodiscard]] const mesh::MeshNetwork* mesh() const { return mesh_.get(); }

  /// The mission's metrics registry. Mutable access so observers (e.g. a
  /// SupportSystem via set_metrics) can register their own instruments
  /// into the same snapshot.
  [[nodiscard]] obs::Registry& metrics() { return obs_; }
  [[nodiscard]] const obs::Registry& metrics() const { return obs_; }
  [[nodiscard]] obs::FlightRecorder& flight_recorder() { return recorder_; }
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const { return recorder_; }
  /// The mission's causal tracer (seeded with config.seed). Mutable so
  /// observers (SupportSystem::set_metrics, pipeline options) can join
  /// the same trace; spans may only be emitted from the mission loop or
  /// serial post-barrier folds (docs/TRACING.md).
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

 private:
  MissionConfig config_;
  /// Declared before every instrumented subsystem: members destruct in
  /// reverse order, so nothing that might still hold a Counter* outlives
  /// the registry it points into.
  obs::Registry obs_;
  obs::FlightRecorder recorder_;
  /// Seeded from config_.seed (config_ is initialized first); destructs
  /// after every subsystem that emits into it.
  obs::Tracer tracer_;
  habitat::Habitat habitat_;
  Rng rng_;
  badge::BadgeNetwork network_;
  crew::CrewSimulator crew_;
  /// Event kernel driving the fault schedule (and any future event-driven
  /// subsystems); pumped once per simulated second.
  sim::Simulation sim_;
  std::unique_ptr<mesh::MeshNetwork> mesh_;
  faults::FaultInjector injector_;
  std::vector<std::function<void(const MissionView&)>> observers_;
};

/// Convenience: run the canonical ICAres-1 mission with the given seed.
[[nodiscard]] Dataset run_icares_mission(std::uint64_t seed = 42);

}  // namespace hs::core
