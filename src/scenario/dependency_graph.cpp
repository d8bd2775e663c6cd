#include "scenario/dependency_graph.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace hs::scenario {

const char* component_kind_name(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kPowerBus:
      return "power-bus";
    case ComponentKind::kBeaconCluster:
      return "beacon-cluster";
    case ComponentKind::kMeshNode:
      return "mesh-node";
    case ComponentKind::kBadgeCharger:
      return "badge-charger";
    case ComponentKind::kLocalization:
      return "localization";
  }
  return "?";
}

Status DependencyGraph::add_component(Component component) {
  if (component.name.empty()) return Error{"scenario: component name must not be empty"};
  if (component.name.find_first_of(" \t") != std::string::npos) {
    return Error{"scenario: component name '" + component.name + "' must not contain whitespace"};
  }
  if (index_of(component.name) >= 0) {
    return Error{"scenario: duplicate component '" + component.name + "'"};
  }
  components_.push_back(std::move(component));
  return Status::success();
}

Status DependencyGraph::add_edge(const std::string& from, const std::string& to,
                                 SimDuration delay, double probability) {
  const std::ptrdiff_t f = index_of(from);
  const std::ptrdiff_t t = index_of(to);
  if (f < 0) return Error{"scenario: edge from unknown component '" + from + "'"};
  if (t < 0) return Error{"scenario: edge to unknown component '" + to + "'"};
  if (f == t) return Error{"scenario: self-edge on '" + from + "'"};
  edges_.push_back(DependencyEdge{static_cast<std::size_t>(f), static_cast<std::size_t>(t),
                                  delay, probability});
  return Status::success();
}

std::ptrdiff_t DependencyGraph::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].name == name) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

Status DependencyGraph::validate() const {
  std::vector<bool> beacon_owned(27, false);
  for (const auto& c : components_) {
    const bool wants_beacons =
        c.kind == ComponentKind::kBeaconCluster || c.kind == ComponentKind::kMeshNode;
    if (wants_beacons && c.beacons.empty()) {
      return Error{"scenario: component '" + c.name + "' needs beacons=<ids>"};
    }
    if (!wants_beacons && !c.beacons.empty()) {
      return Error{"scenario: component '" + c.name + "' takes no beacons"};
    }
    for (const int b : c.beacons) {
      if (b < 0 || b > 26) {
        return Error{"scenario: component '" + c.name + "' beacon " + std::to_string(b) +
                     " out of [0, 26]"};
      }
      if (beacon_owned[static_cast<std::size_t>(b)]) {
        return Error{"scenario: beacon " + std::to_string(b) + " has two supplier components"};
      }
      beacon_owned[static_cast<std::size_t>(b)] = true;
    }
    if (c.kind == ComponentKind::kBadgeCharger && c.badge < 0) {
      return Error{"scenario: component '" + c.name + "' needs badge=<id>"};
    }
    if (c.kind != ComponentKind::kBadgeCharger && c.badge >= 0) {
      return Error{"scenario: component '" + c.name + "' takes no badge"};
    }
    if (c.kind == ComponentKind::kLocalization && c.db <= 0.0) {
      return Error{"scenario: component '" + c.name + "' needs db > 0"};
    }
    if (c.power_kwh_day < 0.0 || c.o2_kg_day < 0.0) {
      return Error{"scenario: component '" + c.name + "' resource rates must be >= 0"};
    }
    if (c.repair <= 0) {
      return Error{"scenario: component '" + c.name + "' repair time must be > 0"};
    }
  }
  std::vector<int> indegree(components_.size(), 0);
  for (const auto& e : edges_) {
    if (e.from >= components_.size() || e.to >= components_.size()) {
      return Error{"scenario: edge endpoint out of range"};
    }
    if (e.delay <= 0) return Error{"scenario: edge delay must be > 0"};
    if (e.probability < 0.0 || e.probability > 1.0) {
      return Error{"scenario: edge probability must be in [0, 1]"};
    }
    ++indegree[e.to];
  }
  // Kahn's algorithm: supply must flow one way, or the cascade walk could
  // chase a loop of mutually-reviving failures.
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::size_t at = ready.back();
    ready.pop_back();
    ++seen;
    for (const auto& e : edges_) {
      if (e.from == at && --indegree[e.to] == 0) ready.push_back(e.to);
    }
  }
  if (seen != components_.size()) return Error{"scenario: dependency graph has a cycle"};
  return Status::success();
}

DependencyGraph generate_topology(std::uint64_t seed) {
  // Stream-tagged fork of the seed so topology draws are independent of
  // any other consumer of the same mission seed.
  Rng rng(seed ^ 0x70B0106ECA5CADEFULL);
  DependencyGraph graph;
  const auto minutes_q = [&](std::int64_t lo, std::int64_t hi, std::int64_t step) {
    return minutes(lo + step * static_cast<std::int64_t>(
                                   rng.uniform_int(0, (hi - lo) / step)));
  };
  // Probabilities quantize to 0.05 steps so specs round-trip through the
  // DSL's %g formatting byte-for-byte.
  const auto prob_q = [&](int lo_pct, int hi_pct) {
    return static_cast<double>(lo_pct + 5 * static_cast<int>(
                                             rng.uniform_int(0, (hi_pct - lo_pct) / 5))) /
           100.0;
  };
  Component loc;
  loc.name = "loc-ble";
  loc.kind = ComponentKind::kLocalization;
  loc.band = io::Band::kBle24;
  loc.db = static_cast<double>(10 + rng.uniform_int(0, 10));
  loc.power_kwh_day = 0.0;
  loc.repair = minutes_q(30, 60, 15);
  const std::string loc_name = loc.name;
  (void)graph.add_component(std::move(loc));
  int next_beacon = 0;
  for (int b = 0; b < 2; ++b) {
    Component bus;
    bus.name = "bus-" + std::to_string(b);
    bus.kind = ComponentKind::kPowerBus;
    bus.power_kwh_day = static_cast<double>(800 + 100 * rng.uniform_int(0, 8));
    bus.o2_kg_day = static_cast<double>(rng.uniform_int(0, 6));
    bus.repair = minutes_q(60, 150, 30);
    (void)graph.add_component(std::move(bus));
    std::string first_cluster;
    for (int c = 0; c < 2; ++c) {
      Component cluster;
      cluster.name = "cluster-" + std::to_string(b) + "-" + std::to_string(c);
      cluster.kind = ComponentKind::kBeaconCluster;
      const int span = 2 + static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < span; ++k) cluster.beacons.push_back(next_beacon++);
      cluster.power_kwh_day = static_cast<double>(30 + 10 * rng.uniform_int(0, 5));
      cluster.repair = minutes_q(30, 60, 15);
      const std::string name = cluster.name;
      (void)graph.add_component(std::move(cluster));
      (void)graph.add_edge("bus-" + std::to_string(b), name, minutes_q(5, 30, 5),
                           prob_q(60, 100));
      if (c == 0) first_cluster = name;
    }
    Component relay;
    relay.name = "relay-" + std::to_string(b);
    relay.kind = ComponentKind::kMeshNode;
    relay.beacons.push_back(next_beacon++);
    relay.power_kwh_day = static_cast<double>(10 + 10 * rng.uniform_int(0, 2));
    relay.repair = minutes_q(30, 45, 15);
    const std::string name = relay.name;
    (void)graph.add_component(std::move(relay));
    (void)graph.add_edge(first_cluster, name, minutes_q(10, 40, 5), prob_q(55, 95));

    Component charger;
    charger.name = "charger-" + std::to_string(b);
    charger.kind = ComponentKind::kBadgeCharger;
    charger.badge = b;
    charger.power_kwh_day = static_cast<double>(5 + 5 * rng.uniform_int(0, 2));
    charger.repair = minutes_q(30, 45, 15);
    const std::string cname = charger.name;
    (void)graph.add_component(std::move(charger));
    (void)graph.add_edge(name, cname, minutes_q(15, 45, 15), prob_q(50, 90));
    (void)graph.add_edge(first_cluster, loc_name, minutes_q(10, 40, 10), prob_q(55, 95));
  }
  return graph;
}

}  // namespace hs::scenario
