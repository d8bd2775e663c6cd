// Disruption scenarios: graph + root failures + repair policy, as data.
//
// A ScenarioSpec bundles everything a cascade needs — the component
// DependencyGraph, the scripted root failures and the repair policy —
// into one value. Specs are built in code: the power_bus_storm() and
// generated(seed) presets, which campaigns name through
// scenario_preset(). expand_scenario() turns a spec into the
// mission-ready form: the expanded fault plan (append to
// MissionConfig::fault_plan), the activation record, and the per-day
// ResourceCoupling drains that make cascades bite the
// support::ResourceLedger. docs/RESILIENCE.md describes the presets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/cascade.hpp"
#include "scenario/dependency_graph.hpp"
#include "support/resources.hpp"
#include "util/expected.hpp"

namespace hs::scenario {

/// A scripted root failure, by component name (resolved at expand time).
struct RootDecl {
  std::string component;
  SimTime at = 0;
  SimDuration window = hours(8);

  friend bool operator==(const RootDecl&, const RootDecl&) = default;
};

struct ScenarioSpec {
  std::string name;
  DependencyGraph graph;
  std::vector<RootDecl> roots;
  RepairPolicy repair;

  [[nodiscard]] bool empty() const { return graph.empty() || roots.empty(); }

  /// Structural validity: graph validates, every root names a known
  /// component with a positive window, repair crew non-empty if enabled.
  [[nodiscard]] Status validate() const;

  // --- presets --------------------------------------------------------------
  /// The "power-bus storm": one main bus feeding two beacon clusters, a
  /// mesh relay, a badge charger and localization quality, failing every
  /// odd mission day with certain (p=1) propagation, heavy backup-power
  /// burn, and a two-astronaut repair crew racing each wave.
  [[nodiscard]] static ScenarioSpec power_bus_storm();

  /// A seeded scenario over generate_topology(seed): per-bus root
  /// failures with randomized days/windows and a randomized repair
  /// reaction. Pure function of the seed: the same seed gives equal
  /// specs.
  [[nodiscard]] static ScenarioSpec generated(std::uint64_t seed);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Per-mission-day resource drains implied by a cascade: each component's
/// power/O2 rate times its down-hours that day. Applied to the ledger at
/// day boundaries (before SupportSystem::end_of_day forecasts shortages).
class ResourceCoupling {
 public:
  ResourceCoupling() = default;
  ResourceCoupling(const DependencyGraph& graph, const CascadeResult& cascade);

  [[nodiscard]] bool empty() const { return per_day_.empty(); }
  [[nodiscard]] int days() const { return static_cast<int>(per_day_.size()); }
  [[nodiscard]] double power_kwh(int day) const;  ///< 1-based mission day
  [[nodiscard]] double o2_kg(int day) const;

  /// Debit `day`'s drains from the ledger (clamping at zero stock).
  void apply_day(int day, support::ResourceLedger& ledger) const;

 private:
  std::vector<std::array<double, 2>> per_day_;  ///< [day-1] -> {kWh, kg O2}
};

/// A spec expanded against a mission seed: ready to wire into a run.
struct ExpandedScenario {
  ScenarioSpec spec;
  CascadeResult cascade;
  ResourceCoupling coupling;
};

/// Expand `spec` deterministically under `seed` (edge draws and repair
/// races resolved). Errors if the spec does not validate.
[[nodiscard]] Expected<ExpandedScenario> expand_scenario(const ScenarioSpec& spec,
                                                         std::uint64_t seed);

/// Resolve a scenario-preset name from the campaign DSL: "none" (empty
/// spec), "power-storm", or "generated" (seeded per habitat). Errors on
/// unknown names.
[[nodiscard]] Expected<ScenarioSpec> scenario_preset(const std::string& name,
                                                     std::uint64_t seed);

/// True when scenario_preset() resolves `name`. Reads the same preset
/// table and builds no spec.
[[nodiscard]] bool is_scenario_preset(std::string_view name);

}  // namespace hs::scenario
