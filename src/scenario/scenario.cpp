#include "scenario/scenario.hpp"

#include <algorithm>
#include <iterator>

#include "util/rng.hpp"

namespace hs::scenario {
namespace {

/// Every cascade-preset name with the spec it denotes: scenario_preset()
/// resolves through this table and is_scenario_preset() reads it.
struct ScenarioPreset {
  std::string_view name;
  ScenarioSpec (*build)(std::uint64_t seed);
};

constexpr ScenarioPreset kScenarioPresets[] = {
    {"none",
     [](std::uint64_t) {
       ScenarioSpec spec;
       spec.name = "none";
       return spec;
     }},
    {"power-storm", [](std::uint64_t) { return ScenarioSpec::power_bus_storm(); }},
    {"generated", &ScenarioSpec::generated},
};

const ScenarioPreset* find_preset(std::string_view name) {
  const auto it = std::find_if(std::begin(kScenarioPresets), std::end(kScenarioPresets),
                               [name](const ScenarioPreset& p) { return p.name == name; });
  return it == std::end(kScenarioPresets) ? nullptr : &*it;
}

}  // namespace

Status ScenarioSpec::validate() const {
  if (auto ok = graph.validate(); !ok.ok()) return ok;
  for (const auto& root : roots) {
    if (graph.index_of(root.component) < 0) {
      return Error{"scenario: root failure names unknown component '" + root.component + "'"};
    }
    if (root.window <= 0) {
      return Error{"scenario: root failure on '" + root.component + "' needs a positive window"};
    }
  }
  if (repair.enabled) {
    if (repair.crew.empty()) return Error{"scenario: repair needs a crew"};
    for (const std::size_t a : repair.crew) {
      if (a >= 6) return Error{"scenario: repair crew index " + std::to_string(a) + " out of [0, 5]"};
    }
    if (repair.reaction < 0) return Error{"scenario: repair reaction must be >= 0"};
  }
  return Status::success();
}

ScenarioSpec ScenarioSpec::power_bus_storm() {
  ScenarioSpec spec;
  spec.name = "power-storm";
  auto add = [&](Component c) { (void)spec.graph.add_component(std::move(c)); };
  Component bus;
  bus.name = "main-bus";
  bus.kind = ComponentKind::kPowerBus;
  bus.power_kwh_day = 1200.0;  // habitat on backup reserves while the bus is dark
  bus.o2_kg_day = 6.0;         // scrubbers fall back to bottled O2
  bus.repair = hours(2);
  add(std::move(bus));
  Component cluster_a;
  cluster_a.name = "cluster-a";
  cluster_a.kind = ComponentKind::kBeaconCluster;
  cluster_a.beacons = {2, 3, 4};
  cluster_a.power_kwh_day = 60.0;
  cluster_a.repair = minutes(45);
  add(std::move(cluster_a));
  Component cluster_b;
  cluster_b.name = "cluster-b";
  cluster_b.kind = ComponentKind::kBeaconCluster;
  cluster_b.beacons = {10, 11};
  cluster_b.power_kwh_day = 60.0;
  cluster_b.repair = minutes(45);
  add(std::move(cluster_b));
  Component relay;
  relay.name = "relay-14";
  relay.kind = ComponentKind::kMeshNode;
  relay.beacons = {14};
  relay.power_kwh_day = 30.0;
  relay.repair = minutes(30);
  add(std::move(relay));
  Component charger;
  charger.name = "charger-2";
  charger.kind = ComponentKind::kBadgeCharger;
  charger.badge = 2;
  charger.power_kwh_day = 15.0;
  charger.repair = minutes(30);
  add(std::move(charger));
  Component loc;
  loc.name = "loc-ble";
  loc.kind = ComponentKind::kLocalization;
  loc.band = io::Band::kBle24;
  loc.db = 18.0;
  loc.repair = minutes(30);
  add(std::move(loc));
  // Certain propagation (p=1): the storm's shape is the test fixture; the
  // seeded diversity lives in generated(). The relay sits 90 minutes
  // downstream of cluster-a — longer than the cluster's 45-minute repair
  // plus dispatch — so a successful repair demonstrably severs the
  // relay/charger branch while the faster branches still cascade.
  (void)spec.graph.add_edge("main-bus", "cluster-a", minutes(10), 1.0);
  (void)spec.graph.add_edge("main-bus", "cluster-b", minutes(15), 1.0);
  (void)spec.graph.add_edge("cluster-a", "relay-14", minutes(90), 1.0);
  (void)spec.graph.add_edge("relay-14", "charger-2", minutes(30), 1.0);
  (void)spec.graph.add_edge("cluster-a", "loc-ble", minutes(25), 1.0);
  // The "storm": the bus browns out every odd mission day. A 1-day fleet
  // habitat sees one wave; the 14-day ICAres mission sees seven.
  for (int day = 1; day <= 13; day += 2) {
    spec.roots.push_back(RootDecl{"main-bus", day_start(day) + hours(9) + minutes(10), hours(10)});
  }
  spec.repair.enabled = true;
  spec.repair.reaction = minutes(20);
  spec.repair.crew = {1, 4};
  return spec;
}

ScenarioSpec ScenarioSpec::generated(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "generated-" + std::to_string(seed);
  spec.graph = generate_topology(seed);
  // Root/repair draws fork a different stream tag than the topology's, so
  // the same seed never correlates graph shape with failure times.
  Rng rng(seed ^ 0x0F1A57A0CA5CADE5ULL);
  for (const auto& c : spec.graph.components()) {
    if (c.kind != ComponentKind::kPowerBus) continue;
    const int waves = 1 + static_cast<int>(rng.uniform_int(0, 1));
    int day = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int w = 0; w < waves; ++w) {
      const SimTime at = day_start(day) + hours(8 + rng.uniform_int(0, 10)) +
                         minutes(10 * rng.uniform_int(0, 5));
      spec.roots.push_back(RootDecl{c.name, at, hours(4 + rng.uniform_int(0, 10))});
      day += 2 + static_cast<int>(rng.uniform_int(0, 4));
    }
  }
  spec.repair.enabled = true;
  spec.repair.reaction = minutes(10 + 5 * rng.uniform_int(0, 6));
  spec.repair.crew = {1, 4};
  return spec;
}

ResourceCoupling::ResourceCoupling(const DependencyGraph& graph, const CascadeResult& cascade) {
  for (const auto& activation : cascade.activations) {
    const Component& c = graph.components()[activation.component];
    if (c.power_kwh_day <= 0.0 && c.o2_kg_day <= 0.0) continue;
    for (int day = mission_day(activation.at); day <= mission_day(activation.until - 1); ++day) {
      const SimTime lo = std::max(activation.at, day_start(day));
      const SimTime hi = std::min(activation.until, day_start(day + 1));
      if (hi <= lo) continue;
      const double fraction = to_hours(hi - lo) / 24.0;
      if (per_day_.size() < static_cast<std::size_t>(day)) {
        per_day_.resize(static_cast<std::size_t>(day), {0.0, 0.0});
      }
      auto& slot = per_day_[static_cast<std::size_t>(day - 1)];
      slot[0] += c.power_kwh_day * fraction;
      slot[1] += c.o2_kg_day * fraction;
    }
  }
}

double ResourceCoupling::power_kwh(int day) const {
  if (day < 1 || day > days()) return 0.0;
  return per_day_[static_cast<std::size_t>(day - 1)][0];
}

double ResourceCoupling::o2_kg(int day) const {
  if (day < 1 || day > days()) return 0.0;
  return per_day_[static_cast<std::size_t>(day - 1)][1];
}

void ResourceCoupling::apply_day(int day, support::ResourceLedger& ledger) const {
  const double kwh = power_kwh(day);
  const double o2 = o2_kg(day);
  if (kwh > 0.0) ledger.drain(support::Resource::kPowerKwh, kwh);
  if (o2 > 0.0) ledger.drain(support::Resource::kOxygenKg, o2);
}

Expected<ExpandedScenario> expand_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  if (auto ok = spec.validate(); !ok.ok()) return ok.error();
  std::vector<RootFailure> roots;
  roots.reserve(spec.roots.size());
  for (const auto& root : spec.roots) {
    roots.push_back(RootFailure{static_cast<std::size_t>(spec.graph.index_of(root.component)),
                                root.at, root.window});
  }
  const CascadeEngine engine(spec.graph, seed, spec.repair);
  ExpandedScenario out;
  out.spec = spec;
  out.cascade = engine.expand(roots, spec.name.empty() ? "cascade" : spec.name + "-cascade");
  out.coupling = ResourceCoupling(spec.graph, out.cascade);
  return out;
}

Expected<ScenarioSpec> scenario_preset(const std::string& name, std::uint64_t seed) {
  const ScenarioPreset* preset = find_preset(name);
  if (preset == nullptr) return Error{"unknown cascade scenario '" + name + "'"};
  return preset->build(seed);
}

bool is_scenario_preset(std::string_view name) { return find_preset(name) != nullptr; }

}  // namespace hs::scenario
