// Habitat component dependency graphs: what fails when its supplier fails.
//
// HabSim (arxiv 2506.08903) models disruptions that *propagate*: a power
// bus browns out, the beacon clusters it feeds go dark, the mesh nodes
// riding those beacons drop off, badge chargers stop charging and
// localization quality degrades. A DependencyGraph declares that
// structure as data: components (each bound to the devices it owns) and
// directed supply edges carrying a propagation delay and probability.
// Graphs are built in code (the presets in scenario.hpp) or generated
// from a seed (generate_topology), and the CascadeEngine (cascade.hpp)
// walks them deterministically. docs/RESILIENCE.md has the propagation
// semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/records.hpp"
#include "util/expected.hpp"
#include "util/units.hpp"

namespace hs::scenario {

enum class ComponentKind : std::uint8_t {
  kPowerBus,       ///< logical supply root: fails silently, children feel it
  kBeaconCluster,  ///< a set of co-located beacons (and their mesh nodes)
  kMeshNode,       ///< a single relay beacon/node
  kBadgeCharger,   ///< one badge's cradle slot: battery dies, recharge inhibited
  kLocalization,   ///< habitat-wide ranging quality on one radio band
};
constexpr std::size_t kComponentKindCount = 5;

/// Canonical kebab-case name ("power-bus", ...).
const char* component_kind_name(ComponentKind kind);

/// One habitat module. The device bindings (beacons/badge/band) say which
/// FaultSpecs the module emits while down; the resource rates say what it
/// burns from the ledger while down (backup power, scrubber oxygen).
struct Component {
  std::string name;
  ComponentKind kind = ComponentKind::kPowerBus;
  std::vector<int> beacons{};        ///< kBeaconCluster / kMeshNode
  int badge = -1;                    ///< kBadgeCharger
  io::Band band = io::Band::kBle24;  ///< kLocalization
  double db = 12.0;                  ///< kLocalization: extra path loss while down
  double power_kwh_day = 0.0;        ///< extra draw on the ledger while down
  double o2_kg_day = 0.0;            ///< extra O2 burn on the ledger while down
  SimDuration repair = minutes(45);  ///< hands-on work to bring it back

  friend bool operator==(const Component&, const Component&) = default;
};

/// Directed supply edge: when `from` goes down, `to` follows after `delay`
/// with probability `probability` — unless `from` recovers (or is
/// repaired) before the propagation arrives.
struct DependencyEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  SimDuration delay = minutes(10);
  double probability = 1.0;

  friend bool operator==(const DependencyEdge&, const DependencyEdge&) = default;
};

class DependencyGraph {
 public:
  DependencyGraph() = default;

  /// Append a component. Names must be unique, non-empty, whitespace-free
  /// (they are DSL tokens).
  Status add_component(Component component);

  /// Append an edge between two already-added components (by name).
  Status add_edge(const std::string& from, const std::string& to, SimDuration delay,
                  double probability);

  [[nodiscard]] const std::vector<Component>& components() const { return components_; }
  [[nodiscard]] const std::vector<DependencyEdge>& edges() const { return edges_; }
  [[nodiscard]] bool empty() const { return components_.empty(); }

  /// Index of the named component, or -1.
  [[nodiscard]] std::ptrdiff_t index_of(const std::string& name) const;

  /// Structural validity: device bindings match each component's kind,
  /// beacon ids in [0, 26] and disjoint across components (a beacon has
  /// one supplier), probabilities in [0, 1], positive delays and repair
  /// times, and no dependency cycles (supply flows one way).
  [[nodiscard]] Status validate() const;

  friend bool operator==(const DependencyGraph&, const DependencyGraph&) = default;

 private:
  std::vector<Component> components_;
  std::vector<DependencyEdge> edges_;
};

/// A seeded habitat topology: two power buses, each feeding two beacon
/// clusters, a mesh relay node and a badge charger, all converging on a
/// shared localization-quality sink. Pure function of the seed: same
/// seed, same graph, byte for byte through the DSL. Beacon ids are
/// assigned disjointly from 0 (at most 18 of the 27).
[[nodiscard]] DependencyGraph generate_topology(std::uint64_t seed);

}  // namespace hs::scenario
