#include "scenario/cascade.hpp"

#include <algorithm>
#include <tuple>

namespace hs::scenario {
namespace {

/// splitmix64 finalizer (the fleet::habitat_seed mixing function).
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One propagation attempt, waiting in the chronological walk. Ordering
/// key is (at, component, seq): FIFO among simultaneous arrivals, so the
/// expansion order — and with it every RNG ordinal and repair-crew
/// assignment — is a pure function of the inputs.
struct Pending {
  SimTime at = 0;
  SimTime window_end = 0;
  std::size_t component = 0;
  std::ptrdiff_t parent = -1;
  std::size_t seq = 0;
};

bool later(const Pending& a, const Pending& b) {
  return std::tie(a.at, a.component, a.seq) > std::tie(b.at, b.component, b.seq);
}

}  // namespace

CascadeEngine::CascadeEngine(const DependencyGraph& graph, std::uint64_t seed,
                             RepairPolicy repair, crew::MissionTimetable timetable)
    : graph_(graph), seed_(seed), repair_(std::move(repair)), timetable_(timetable) {}

double CascadeEngine::edge_unit(std::size_t edge, std::uint64_t ordinal) const {
  // Hash, don't stream: the draw for (edge, ordinal) never depends on how
  // many draws other edges made, so local plan edits perturb nothing else.
  std::uint64_t h = mix(seed_ ^ 0xCA5CADE000000000ULL);
  h = mix(h + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(edge) + 1));
  h = mix(h + ordinal);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void CascadeEngine::emit_faults(const Component& component, SimTime at, SimTime until,
                                faults::FaultPlan& plan) const {
  const SimDuration window = until - at;
  switch (component.kind) {
    case ComponentKind::kPowerBus:
      // Logical supply node: the outage is only visible through children.
      return;
    case ComponentKind::kBeaconCluster:
    case ComponentKind::kMeshNode:
      for (const int beacon : component.beacons) {
        faults::FaultSpec spec;
        spec.kind = faults::FaultKind::kBeaconOutage;
        spec.beacon = beacon;
        spec.start = at;
        spec.duration = window;
        plan.add(spec);
      }
      return;
    case ComponentKind::kBadgeCharger: {
      faults::FaultSpec spec;
      spec.kind = faults::FaultKind::kBatteryDeath;
      spec.badge = component.badge;
      spec.start = at;
      spec.duration = window;
      plan.add(spec);
      return;
    }
    case ComponentKind::kLocalization: {
      faults::FaultSpec spec;
      spec.kind = faults::FaultKind::kRadioDegradation;
      spec.band = component.band;
      spec.magnitude = component.db;
      spec.start = at;
      spec.duration = window;
      plan.add(spec);
      return;
    }
  }
}

CascadeResult CascadeEngine::expand(const std::vector<RootFailure>& roots,
                                    const std::string& plan_name) const {
  CascadeResult result;
  result.plan = faults::FaultPlan(plan_name);
  const auto& components = graph_.components();
  const auto& edges = graph_.edges();
  // A repair never runs past bedtime, so work longer than the waking day
  // can never be scheduled.
  const SimDuration workday = timetable_.bedtime - timetable_.wake;
  const SimDuration slot = minutes(30);
  // The earliest slot-aligned instant >= t where `work` fits before bedtime.
  const auto next_repair_slot = [&](SimTime t, SimDuration work) {
    SimTime aligned = (t + slot - 1) / slot * slot;
    for (;;) {
      const int day = mission_day(aligned);
      const SimDuration tod = aligned - day_start(day);
      if (tod < timetable_.wake) {
        aligned = day_start(day) + timetable_.wake;
      } else if (tod + work > timetable_.bedtime) {
        aligned = day_start(day + 1) + timetable_.wake;
      } else {
        return aligned;
      }
    }
  };

  std::vector<SimTime> down_until(components.size(), -1);
  std::vector<SimTime> busy(repair_.crew.size(), 0);  ///< per-astronaut, crew-list order
  std::vector<std::uint64_t> edge_ordinal(edges.size(), 0);

  std::vector<Pending> heap;
  std::size_t seq = 0;
  for (const auto& root : roots) {
    if (root.component >= components.size() || root.window <= 0) continue;
    heap.push_back(Pending{root.at, root.at + root.window, root.component, -1, seq++});
  }
  std::make_heap(heap.begin(), heap.end(), later);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Pending event = heap.back();
    heap.pop_back();
    if (event.window_end <= event.at) continue;
    // Already down: the later arrival is absorbed into the open window.
    if (down_until[event.component] > event.at) continue;
    const Component& component = components[event.component];

    CascadeActivation activation;
    activation.component = event.component;
    activation.parent = event.parent;
    activation.at = event.at;
    SimTime until = event.window_end;
    if (repair_.enabled && !repair_.crew.empty() && component.repair <= workday) {
      // Dispatch the astronaut who can actually start first (crew-list
      // order breaks ties). The crew member stays occupied for the full
      // work window even if the module self-recovers mid-repair.
      const SimTime earliest = event.at + repair_.reaction;
      std::size_t best = repair_.crew.size();
      SimTime best_start = 0;
      for (std::size_t i = 0; i < repair_.crew.size(); ++i) {
        const SimTime cand = next_repair_slot(std::max(earliest, busy[i]), component.repair);
        if (best == repair_.crew.size() || cand < best_start) {
          best = i;
          best_start = cand;
        }
      }
      if (best < repair_.crew.size()) {
        busy[best] = best_start + component.repair;
        activation.astronaut = static_cast<std::ptrdiff_t>(repair_.crew[best]);
        activation.repair_start = best_start;
        const SimTime done = best_start + component.repair;
        if (done < until) {
          until = done;
          activation.repaired = true;
          ++result.repairs;
        }
      }
    }
    activation.until = until;
    down_until[event.component] = until;
    if (event.parent >= 0) ++result.dependents;
    const auto activation_index = static_cast<std::ptrdiff_t>(result.activations.size());
    result.activations.push_back(activation);
    emit_faults(component, event.at, until, result.plan);

    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].from != event.component) continue;
      const SimTime arrival = event.at + edges[e].delay;
      const double unit = edge_unit(e, edge_ordinal[e]++);
      // Propagation needs the supplier still down when it arrives — a
      // repair that beat the delay halts the cascade past this node.
      if (arrival >= until) continue;
      if (unit >= edges[e].probability) continue;
      heap.push_back(Pending{arrival, until, edges[e].to, activation_index, seq++});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return result;
}

}  // namespace hs::scenario
