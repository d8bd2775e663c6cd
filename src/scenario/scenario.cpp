#include "scenario/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "faults/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hs::scenario {
namespace {

// Times, durations, numbers and id lists use the fault DSL's syntax.
using faults::dsl::format_duration;
using faults::dsl::format_int_list;
using faults::dsl::format_number;
using faults::dsl::format_time;
using faults::dsl::parse_duration;
using faults::dsl::parse_int_list;
using faults::dsl::parse_time;

constexpr ComponentKind kAllComponentKinds[] = {
    ComponentKind::kPowerBus,     ComponentKind::kBeaconCluster, ComponentKind::kMeshNode,
    ComponentKind::kBadgeCharger, ComponentKind::kLocalization,
};
static_assert(std::size(kAllComponentKinds) == kComponentKindCount);

}  // namespace

Status ScenarioSpec::validate() const {
  if (auto ok = graph.validate(); !ok.ok()) return ok;
  for (const auto& root : roots) {
    if (graph.index_of(root.component) < 0) {
      return Error{"scenario: root failure names unknown component '" + root.component + "'"};
    }
    if (root.window <= 0) {
      return Error{"scenario: root failure on '" + root.component + "' needs for=<dur> > 0"};
    }
  }
  if (repair.enabled) {
    if (repair.crew.empty()) return Error{"scenario: repair needs crew=<astronaut ids>"};
    for (const std::size_t a : repair.crew) {
      if (a >= 6) return Error{"scenario: repair crew index " + std::to_string(a) + " out of [0, 5]"};
    }
    if (repair.reaction < 0) return Error{"scenario: repair reaction must be >= 0"};
  }
  return Status::success();
}

std::string ScenarioSpec::to_string() const {
  std::ostringstream out;
  if (!name.empty()) out << "scenario " << name << "\n";
  for (const auto& c : graph.components()) {
    out << "component " << c.name << " kind=" << component_kind_name(c.kind);
    if (!c.beacons.empty()) out << " beacons=" << format_int_list(c.beacons);
    if (c.badge >= 0) out << " badge=" << c.badge;
    if (c.kind == ComponentKind::kLocalization) {
      out << " band=" << (c.band == io::Band::kBle24 ? "ble" : "subghz")
          << " db=" << format_number(c.db);
    }
    if (c.power_kwh_day > 0.0) out << " power=" << format_number(c.power_kwh_day);
    if (c.o2_kg_day > 0.0) out << " o2=" << format_number(c.o2_kg_day);
    out << " repair=" << format_duration(c.repair) << "\n";
  }
  for (const auto& e : graph.edges()) {
    out << "edge " << graph.components()[e.from].name << "->" << graph.components()[e.to].name
        << " delay=" << format_duration(e.delay) << " p=" << format_number(e.probability)
        << "\n";
  }
  for (const auto& r : roots) {
    out << "fail " << r.component << " at=" << format_time(r.at)
        << " for=" << format_duration(r.window) << "\n";
  }
  if (repair.enabled) {
    std::vector<int> crew;
    crew.reserve(repair.crew.size());
    for (const std::size_t a : repair.crew) crew.push_back(static_cast<int>(a));
    out << "repair crew=" << format_int_list(crew)
        << " react=" << format_duration(repair.reaction) << "\n";
  }
  return out.str();
}

Expected<ScenarioSpec> ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) {
    return Error{"scenario: line " + std::to_string(line_no) + ": " + why};
  };
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head[0] == '#') continue;
    if (head == "scenario") {
      tokens >> spec.name;
      continue;
    }
    if (head == "component") {
      Component c;
      if (!(tokens >> c.name)) return fail("component needs a name");
      bool kinded = false;
      std::string kv;
      while (tokens >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        const auto bad_number = [&] { return fail("bad " + key + " '" + value + "'"); };
        if (key == "kind") {
          for (const ComponentKind k : kAllComponentKinds) {
            if (value == component_kind_name(k)) {
              c.kind = k;
              kinded = true;
              break;
            }
          }
          if (!kinded) return fail("unknown component kind '" + value + "'");
        } else if (key == "beacons") {
          if (!parse_int_list(value, c.beacons)) return fail("bad beacon list '" + value + "'");
        } else if (key == "badge") {
          if (!parse_number(value, c.badge)) return bad_number();
        } else if (key == "band") {
          if (value == "ble") {
            c.band = io::Band::kBle24;
          } else if (value == "subghz") {
            c.band = io::Band::kSubGhz868;
          } else {
            return fail("bad band '" + value + "'");
          }
        } else if (key == "db") {
          if (!parse_number(value, c.db)) return bad_number();
        } else if (key == "power") {
          if (!parse_number(value, c.power_kwh_day)) return bad_number();
        } else if (key == "o2") {
          if (!parse_number(value, c.o2_kg_day)) return bad_number();
        } else if (key == "repair") {
          if (!parse_duration(value, c.repair)) return fail("bad duration '" + value + "'");
        } else {
          return fail("unknown key '" + key + "'");
        }
      }
      if (!kinded) return fail("component '" + c.name + "' needs kind=<kind>");
      if (auto ok = spec.graph.add_component(std::move(c)); !ok.ok()) {
        return fail(ok.error().message);
      }
      continue;
    }
    if (head == "edge") {
      std::string pair;
      if (!(tokens >> pair)) return fail("edge needs <from>-><to>");
      const auto arrow = pair.find("->");
      if (arrow == std::string::npos || arrow == 0 || arrow + 2 >= pair.size()) {
        return fail("edge wants <from>-><to>, got '" + pair + "'");
      }
      const std::string from = pair.substr(0, arrow);
      const std::string to = pair.substr(arrow + 2);
      SimDuration delay = 0;
      double probability = -1.0;
      std::string kv;
      while (tokens >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "delay") {
          if (!parse_duration(value, delay)) return fail("bad duration '" + value + "'");
        } else if (key == "p") {
          if (!parse_number(value, probability)) return fail("bad p '" + value + "'");
        } else {
          return fail("unknown key '" + key + "'");
        }
      }
      if (delay <= 0) return fail("edge needs delay=<dur> > 0");
      if (probability < 0.0 || probability > 1.0) return fail("edge needs p=<x> in [0, 1]");
      if (auto ok = spec.graph.add_edge(from, to, delay, probability); !ok.ok()) {
        return fail(ok.error().message);
      }
      continue;
    }
    if (head == "fail") {
      RootDecl root;
      if (!(tokens >> root.component)) return fail("fail needs a component name");
      bool timed = false;
      std::string kv;
      while (tokens >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "at") {
          if (!parse_time(value, root.at)) return fail("bad time '" + value + "'");
          timed = true;
        } else if (key == "for") {
          if (!parse_duration(value, root.window)) return fail("bad duration '" + value + "'");
        } else {
          return fail("unknown key '" + key + "'");
        }
      }
      if (!timed) return fail("fail needs at=<day>d<hh>:<mm>");
      spec.roots.push_back(std::move(root));
      continue;
    }
    if (head == "repair") {
      spec.repair.enabled = true;
      std::string kv;
      while (tokens >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) return fail("expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "crew") {
          std::vector<int> ids;
          if (!parse_int_list(value, ids)) return fail("bad crew list '" + value + "'");
          spec.repair.crew.clear();
          for (const int id : ids) spec.repair.crew.push_back(static_cast<std::size_t>(id));
        } else if (key == "react") {
          if (!parse_duration(value, spec.repair.reaction)) {
            return fail("bad duration '" + value + "'");
          }
        } else {
          return fail("unknown key '" + key + "'");
        }
      }
      continue;
    }
    return fail("unknown directive '" + head + "'");
  }
  if (auto ok = spec.validate(); !ok.ok()) return ok.error();
  return spec;
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
  if (name == "none") {
    ScenarioSpec spec;
    spec.name = "none";
    return spec;
  }
  if (name == "power-storm") return ScenarioSpec::power_bus_storm();
  if (name == "generated") return ScenarioSpec::generated(seed);
  return Error{"unknown cascade scenario '" + name + "'"};
}

}  // namespace hs::scenario
