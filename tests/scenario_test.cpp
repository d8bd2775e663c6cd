// The cascade scenario engine: dependency-graph fault propagation with
// crew repair and resource coupling. Covers graph validation and its
// reject paths, seeded topology generation, the purity of cascade
// expansion, the power-bus storm acceptance behaviors — a root fault
// producing >= 3 dependent activations and a shortage alert, and a
// scheduled repair severing a propagation branch — plus the repair-crew
// occupancy rules and the per-day resource drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crew/schedule.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet_runner.hpp"
#include "scenario/scenario.hpp"
#include "support/alert.hpp"
#include "support/resources.hpp"

namespace hs::scenario {
namespace {

Component make_component(std::string name, ComponentKind kind) {
  Component c;
  c.name = std::move(name);
  c.kind = kind;
  return c;
}

/// Names of the components a cascade actually activated.
std::set<std::string> activated_names(const DependencyGraph& graph, const CascadeResult& result) {
  std::set<std::string> names;
  for (const auto& activation : result.activations) {
    names.insert(graph.components()[activation.component].name);
  }
  return names;
}

TEST(DependencyGraphTest, ComponentKindNamesAreUnique) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kComponentKindCount; ++k) {
    const std::string name = component_kind_name(static_cast<ComponentKind>(k));
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
  }
}

TEST(DependencyGraphTest, RejectsBadComponentsAndEdges) {
  DependencyGraph graph;
  EXPECT_FALSE(graph.add_component(make_component("", ComponentKind::kPowerBus)).ok());
  EXPECT_FALSE(graph.add_component(make_component("two words", ComponentKind::kPowerBus)).ok());
  ASSERT_TRUE(graph.add_component(make_component("bus", ComponentKind::kPowerBus)).ok());
  EXPECT_FALSE(graph.add_component(make_component("bus", ComponentKind::kMeshNode)).ok());
  ASSERT_TRUE(graph.add_component(make_component("node", ComponentKind::kMeshNode)).ok());
  EXPECT_FALSE(graph.add_edge("bus", "ghost", minutes(5), 1.0).ok());
  EXPECT_FALSE(graph.add_edge("ghost", "node", minutes(5), 1.0).ok());
  EXPECT_FALSE(graph.add_edge("bus", "bus", minutes(5), 1.0).ok());
  EXPECT_TRUE(graph.add_edge("bus", "node", minutes(5), 1.0).ok());
  EXPECT_EQ(graph.index_of("node"), 1);
  EXPECT_EQ(graph.index_of("ghost"), -1);
}

TEST(DependencyGraphTest, ValidateCatchesBindingAndCycleErrors) {
  {
    // A beacon may have only one supplier.
    DependencyGraph graph;
    Component a = make_component("a", ComponentKind::kBeaconCluster);
    a.beacons = {1, 2};
    Component b = make_component("b", ComponentKind::kBeaconCluster);
    b.beacons = {2, 3};
    ASSERT_TRUE(graph.add_component(std::move(a)).ok());
    ASSERT_TRUE(graph.add_component(std::move(b)).ok());
    EXPECT_FALSE(graph.validate().ok());
  }
  {
    // Supply flows one way: a dependency cycle never validates.
    DependencyGraph graph;
    ASSERT_TRUE(graph.add_component(make_component("a", ComponentKind::kPowerBus)).ok());
    Component node = make_component("b", ComponentKind::kMeshNode);
    node.beacons = {5};
    ASSERT_TRUE(graph.add_component(std::move(node)).ok());
    ASSERT_TRUE(graph.add_edge("a", "b", minutes(5), 1.0).ok());
    ASSERT_TRUE(graph.add_edge("b", "a", minutes(5), 1.0).ok());
    EXPECT_FALSE(graph.validate().ok());
  }
  {
    // Probabilities live in [0, 1]; a charger needs its badge binding.
    DependencyGraph graph;
    ASSERT_TRUE(graph.add_component(make_component("a", ComponentKind::kPowerBus)).ok());
    ASSERT_TRUE(graph.add_component(make_component("c", ComponentKind::kBadgeCharger)).ok());
    ASSERT_TRUE(graph.add_edge("a", "c", minutes(5), 1.5).ok());
    EXPECT_FALSE(graph.validate().ok());
  }
  {
    // A root failure must name a component of the graph, and
    // expand_scenario refuses a spec that does not validate.
    ScenarioSpec spec = ScenarioSpec::power_bus_storm();
    spec.roots.push_back(RootDecl{"ghost", day_start(2), hours(1)});
    EXPECT_FALSE(spec.validate().ok());
    EXPECT_FALSE(expand_scenario(spec, 7).has_value());
  }
}

TEST(DependencyGraphTest, GeneratedTopologyIsSeedPure) {
  const DependencyGraph g7 = generate_topology(7);
  EXPECT_EQ(g7, generate_topology(7));
  EXPECT_NE(g7, generate_topology(42));
  EXPECT_TRUE(g7.validate().ok());
  EXPECT_TRUE(generate_topology(42).validate().ok());
  // The default shape: two buses, each feeding clusters, a relay and a
  // charger, converging on a localization sink.
  std::size_t buses = 0;
  for (const auto& c : g7.components()) {
    if (c.kind == ComponentKind::kPowerBus) ++buses;
  }
  EXPECT_EQ(buses, 2u);
  EXPECT_FALSE(g7.edges().empty());
}

TEST(ScenarioPresetTest, ResolvesCampaignNames) {
  const auto none = scenario_preset("none", 7);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  const auto storm = scenario_preset("power-storm", 7);
  ASSERT_TRUE(storm.has_value());
  EXPECT_EQ(*storm, ScenarioSpec::power_bus_storm());
  const auto generated = scenario_preset("generated", 7);
  ASSERT_TRUE(generated.has_value());
  EXPECT_EQ(*generated, ScenarioSpec::generated(7));
  EXPECT_FALSE(scenario_preset("meteor-shower", 7).has_value());
}

TEST(CascadeEngineTest, ExpansionIsPureFunctionOfSeedGraphPlan) {
  const ScenarioSpec spec = ScenarioSpec::generated(7);
  const auto a = expand_scenario(spec, 7);
  const auto b = expand_scenario(spec, 7);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cascade.activations, b->cascade.activations);
  EXPECT_EQ(a->cascade.plan.to_string(), b->cascade.plan.to_string());
  // The emitted plan is itself DSL-stable: it round-trips byte for byte.
  const auto reparsed = faults::FaultPlan::parse(a->cascade.plan.to_string());
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;
  EXPECT_EQ(reparsed->to_string(), a->cascade.plan.to_string());
  // A different habitat's expansion of its own generated scenario differs.
  const auto other = expand_scenario(ScenarioSpec::generated(42), 42);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->cascade.plan.to_string(), a->cascade.plan.to_string());
}

TEST(CascadeEngineTest, ActivationsAreChronologicalAndCausal) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{42}}) {
    const ScenarioSpec spec = ScenarioSpec::generated(seed);
    const auto expanded = expand_scenario(spec, seed);
    ASSERT_TRUE(expanded.has_value());
    const auto& activations = expanded->cascade.activations;
    for (std::size_t i = 0; i < activations.size(); ++i) {
      const auto& act = activations[i];
      EXPECT_LT(act.at, act.until);
      if (i > 0) {
        EXPECT_GE(act.at, activations[i - 1].at);
      }
      if (act.parent >= 0) {
        ASSERT_LT(act.parent, static_cast<std::ptrdiff_t>(i));
        const auto& parent = activations[static_cast<std::size_t>(act.parent)];
        // A child starts strictly after its supplier went down, while the
        // supplier is still down, and can never outlive the supplier's
        // effective window (repair clamps flow downstream).
        EXPECT_GT(act.at, parent.at);
        EXPECT_LT(act.at, parent.until);
        EXPECT_LE(act.until, parent.until);
      }
    }
  }
}

TEST(CascadeEngineTest, PowerBusStormCascades) {
  const ScenarioSpec storm = ScenarioSpec::power_bus_storm();
  const auto expanded = expand_scenario(storm, 42);
  ASSERT_TRUE(expanded.has_value());
  const CascadeResult& cascade = expanded->cascade;
  // Seven waves (odd days 1..13); each wave the bus takes down cluster-a,
  // cluster-b and localization before the repairs land.
  EXPECT_EQ(cascade.activations.size(), 28u);
  EXPECT_EQ(cascade.dependents, 21u);
  EXPECT_GE(cascade.dependents, 3u);  // the acceptance floor, per wave
  EXPECT_EQ(cascade.repairs, 14u);    // bus + cluster-a, every wave
  const std::set<std::string> names = activated_names(storm.graph, cascade);
  EXPECT_TRUE(names.count("main-bus"));
  EXPECT_TRUE(names.count("cluster-a"));
  EXPECT_TRUE(names.count("cluster-b"));
  EXPECT_TRUE(names.count("loc-ble"));
  // Device faults: beacon outages for both clusters plus the ranging
  // degradation — and nothing from the severed relay/charger branch.
  std::set<int> beacons;
  bool battery_death = false;
  bool radio_degradation = false;
  for (const auto& spec : cascade.plan.faults()) {
    if (spec.kind == faults::FaultKind::kBeaconOutage) beacons.insert(spec.beacon);
    if (spec.kind == faults::FaultKind::kBatteryDeath) battery_death = true;
    if (spec.kind == faults::FaultKind::kRadioDegradation) radio_degradation = true;
  }
  EXPECT_EQ(beacons, (std::set<int>{2, 3, 4, 10, 11}));
  EXPECT_TRUE(radio_degradation);
  EXPECT_FALSE(battery_death);  // charger-2 never falls: repairs cut the branch
}

TEST(CascadeEngineTest, ScheduledRepairHaltsPropagation) {
  const ScenarioSpec storm = ScenarioSpec::power_bus_storm();
  ScenarioSpec unrepaired = storm;
  unrepaired.repair.enabled = false;
  const auto with_repair = expand_scenario(storm, 42);
  const auto without_repair = expand_scenario(unrepaired, 42);
  ASSERT_TRUE(with_repair.has_value());
  ASSERT_TRUE(without_repair.has_value());
  EXPECT_EQ(without_repair->cascade.repairs, 0u);
  EXPECT_GE(with_repair->cascade.repairs, 1u);
  // Unchecked, every wave reaches the relay and the badge charger; the
  // repaired cluster-a comes back before the 90-minute propagation
  // arrives, so the whole branch disappears.
  EXPECT_EQ(without_repair->cascade.dependents, 35u);
  EXPECT_GT(without_repair->cascade.activations.size(),
            with_repair->cascade.activations.size());
  const std::set<std::string> with_names = activated_names(storm.graph, with_repair->cascade);
  const std::set<std::string> without_names =
      activated_names(unrepaired.graph, without_repair->cascade);
  EXPECT_TRUE(without_names.count("relay-14"));
  EXPECT_TRUE(without_names.count("charger-2"));
  EXPECT_FALSE(with_names.count("relay-14"));
  EXPECT_FALSE(with_names.count("charger-2"));
}

TEST(CascadeEngineTest, RepairCrewObeysScheduleAndOccupancy) {
  const ScenarioSpec storm = ScenarioSpec::power_bus_storm();
  const auto expanded = expand_scenario(storm, 42);
  ASSERT_TRUE(expanded.has_value());
  const crew::MissionTimetable timetable;
  const SimDuration slot = minutes(30);
  std::map<std::ptrdiff_t, std::vector<std::pair<SimTime, SimTime>>> busy;
  std::size_t dispatched = 0;
  for (const auto& act : expanded->cascade.activations) {
    if (act.astronaut < 0) continue;
    ++dispatched;
    const Component& component = storm.graph.components()[act.component];
    EXPECT_TRUE(act.astronaut == 1 || act.astronaut == 4);
    EXPECT_GE(act.repair_start, act.at + storm.repair.reaction);
    EXPECT_EQ(act.repair_start % slot, 0) << "repair off the 30-minute slot grid";
    const SimDuration tod = act.repair_start - day_start(mission_day(act.repair_start));
    EXPECT_GE(tod, timetable.wake);
    EXPECT_LE(tod + component.repair, timetable.bedtime);
    busy[act.astronaut].emplace_back(act.repair_start, act.repair_start + component.repair);
  }
  EXPECT_GT(dispatched, 0u);
  for (auto& [astronaut, windows] : busy) {
    std::sort(windows.begin(), windows.end());
    for (std::size_t i = 1; i < windows.size(); ++i) {
      EXPECT_GE(windows[i].first, windows[i - 1].second)
          << "astronaut " << astronaut << " double-booked";
    }
  }
}

TEST(ResourceCouplingTest, DrainsTrackDownWindows) {
  const ScenarioSpec storm = ScenarioSpec::power_bus_storm();
  const auto expanded = expand_scenario(storm, 42);
  ASSERT_TRUE(expanded.has_value());
  const ResourceCoupling& coupling = expanded->coupling;
  ASSERT_GE(coupling.days(), 13);
  // Wave 1 with repairs: the bus burns backup power 09:10-11:30 (2h20m of
  // 1200 kWh/day), cluster-a 09:20-10:45 and cluster-b 09:25-11:30 at
  // 60 kWh/day each.
  const double bus_kwh = 1200.0 * (140.0 / 60.0) / 24.0;
  const double cluster_kwh = 60.0 * (85.0 / 60.0) / 24.0 + 60.0 * (125.0 / 60.0) / 24.0;
  EXPECT_NEAR(coupling.power_kwh(1), bus_kwh + cluster_kwh, 1e-9);
  EXPECT_NEAR(coupling.o2_kg(1), 6.0 * (140.0 / 60.0) / 24.0, 1e-9);
  EXPECT_EQ(coupling.power_kwh(2), 0.0);  // even days are quiet
  EXPECT_NEAR(coupling.power_kwh(3), coupling.power_kwh(1), 1e-9);  // same race, same windows
  // apply_day debits the ledger (and clamps at zero).
  support::ResourceLedger ledger = support::ResourceLedger::icares_default(6);
  const double before = ledger.state(support::Resource::kPowerKwh).stock;
  coupling.apply_day(1, ledger);
  EXPECT_NEAR(ledger.state(support::Resource::kPowerKwh).stock, before - coupling.power_kwh(1),
              1e-9);
}

/// The acceptance mission: an 8-day habitat under the power-bus storm
/// cascades (>= 3 dependent activations surfaced in the metrics) and the
/// sustained backup-power burn drives the ledger under the warning
/// horizon — a kResourceShortage alert — before the mission ends.
TEST(ScenarioMissionTest, StormMissionRaisesShortageAlert) {
  fleet::HabitatSpec spec;
  spec.index = 0;
  spec.seed = 42;
  spec.days = 8;
  spec.crew = 6;
  spec.beacons = 27;
  spec.mesh = true;
  spec.replication = 3;
  spec.fault_preset = "none";
  spec.cascade = "power-storm";
  const fleet::HabitatSummary summary = fleet::run_habitat(spec, fleet::CampaignOptions{});
  EXPECT_GE(summary.alert_counts[static_cast<std::size_t>(support::AlertKind::kResourceShortage)],
            1u);
  const obs::SnapshotEntry* dependents = summary.metrics.find("scenario.cascade_dependents");
  ASSERT_NE(dependents, nullptr);
  EXPECT_GE(dependents->value, 3.0);
  const obs::SnapshotEntry* repairs = summary.metrics.find("scenario.cascade_repairs");
  ASSERT_NE(repairs, nullptr);
  EXPECT_GE(repairs->value, 1.0);
  // The cascade's device faults ran through the stock injector: four
  // in-mission waves x 6 faults (beacons 2,3,4,10,11 + ranging).
  const obs::SnapshotEntry* activated = summary.metrics.find("faults.activated");
  ASSERT_NE(activated, nullptr);
  EXPECT_EQ(activated->count, 24u);
}

}  // namespace
}  // namespace hs::scenario
