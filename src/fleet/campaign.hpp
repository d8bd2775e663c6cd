// Campaign specs: parameterising a fleet of habitats.
//
// The paper simulates one 6-person habitat; the fleet layer runs
// hundreds to thousands of them and asks population questions (alert
// rates, badge-failure distributions, replication latencies) that no
// single mission can answer. A CampaignSpec is the whole experiment as
// data: how many habitats, and per-axis value lists (seeds, mission
// lengths, crew sizes, beacon layouts, fault plans) assigned round-robin
// by habitat index. Like faults::FaultPlan it serialises to a small
// line-based text DSL so campaigns can be stored, diffed and replayed;
// expand() deterministically unrolls the spec into one HabitatSpec per
// habitat, which is what makes a campaign's aggregate dump a pure
// function of the spec. docs/FLEET.md is the reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "faults/fault_plan.hpp"
#include "util/expected.hpp"

namespace hs::fleet {

/// One habitat of the fleet, fully resolved: everything run_habitat
/// needs to build its MissionConfig. A pure function of (spec, index).
struct HabitatSpec {
  std::size_t index = 0;       ///< position in the fleet (shard id)
  std::uint64_t seed = 42;     ///< mission seed (mixed from base seed + index)
  int days = 1;                ///< mission length; day 1 is instrumented
  int crew = 6;                ///< 6, or 5 (C departs at mission start)
  int beacons = 27;            ///< beacon/mesh-node deployment density
  bool mesh = true;            ///< run the in-habitat data plane
  int replication = 3;         ///< mesh replication factor
  std::string fault_preset = "none";  ///< preset name (see fault_preset())
  std::string cascade = "none";       ///< cascade scenario preset (see scenario_preset())
  int trace_sample = 100;  ///< trace keep percentage (head-based sampling)

  friend bool operator==(const HabitatSpec&, const HabitatSpec&) = default;
};

/// The campaign as written: fleet size plus per-axis value lists.
/// Habitat i takes element i % size() of each axis, so a single-element
/// axis is uniform and a list round-robins across the fleet.
struct CampaignSpec {
  std::string name;
  int habitats = 1;
  std::uint64_t base_seed = 42;
  std::vector<int> days{1};
  std::vector<int> crew{6};
  std::vector<int> beacons{27};
  std::vector<std::string> faults{"none"};
  std::vector<std::string> cascade{"none"};
  /// Per-habitat trace keep percentage (0..100). At 1000 habitats the
  /// aggregate trace memory is bounded by sampling each habitat's tracer
  /// rather than truncating at the span cap, so the stories that survive
  /// are complete (docs/TRACING.md "Sampling").
  std::vector<int> trace_sample{100};
  bool mesh = true;
  int replication = 3;

  /// Structural validity (used by parse() and expand() callers): at least
  /// one habitat, non-empty axes, crew in {5,6}, beacons in [1,27],
  /// days >= 1, replication >= 1, trace_sample in [0, 100], every fault
  /// and cascade preset name known (checked by name: no plan or scenario
  /// is built).
  [[nodiscard]] Status validate() const;

  /// Unroll into one HabitatSpec per habitat. The spec must validate.
  [[nodiscard]] std::vector<HabitatSpec> expand() const;

  /// Serialize to the line-based DSL (round-trips through parse()).
  [[nodiscard]] std::string to_string() const;

  /// Parse the DSL. Lines: `campaign <name>`, `habitats <n>`,
  /// `seed <base>`, `days <list>`, `crew <list>`, `beacons <list>`,
  /// `faults <list>`, `cascade <list>`, `trace_sample <list>`,
  /// `mesh on|off`, `replication <k>`, `#` comments and blank lines.
  /// Lists are comma-separated. Unknown keys or malformed values are
  /// errors, as is a spec that fails validate().
  [[nodiscard]] static Expected<CampaignSpec> parse(const std::string& text);

  friend bool operator==(const CampaignSpec&, const CampaignSpec&) = default;
};

/// Habitat i's mission seed: a splitmix64-style mix of (base, index), so
/// neighbouring habitats get decorrelated streams while the mapping stays
/// a pure function of the spec.
[[nodiscard]] std::uint64_t habitat_seed(std::uint64_t base, std::size_t index);

/// Resolve a fault-preset name from the campaign DSL: "none" or one of
/// the faults::FaultPlan presets ("day9-badge-swap", "battery-stress",
/// "storage-stress", "infrastructure-stress", "clock-anomalies",
/// "mesh-partition", "combined" — the last seeded per habitat). Errors on
/// unknown names.
[[nodiscard]] Expected<faults::FaultPlan> fault_preset(const std::string& name,
                                                       std::uint64_t seed);

/// The MissionConfig a habitat spec denotes: short missions are
/// instrumented from day 1 (badge_start_day = 1), crew 5 scripts C's
/// departure at mission start, and the mesh runs with the spec's
/// replication factor. A cascade scenario ("power-storm" / "generated",
/// seeded per habitat) expands deterministically and its device faults
/// are appended to the fault plan; run_habitat additionally wires the
/// resource coupling at day boundaries.
[[nodiscard]] core::MissionConfig make_mission_config(const HabitatSpec& spec);

}  // namespace hs::fleet
