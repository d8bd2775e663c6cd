// Deterministic cascade expansion: root failures → scheduled FaultSpecs.
//
// The CascadeEngine walks a DependencyGraph chronologically from a set of
// root failures and produces the complete, fully-scheduled consequence:
// one CascadeActivation per component down-window and a flat
// faults::FaultPlan of the device faults those windows emit, which feeds
// the existing faults::FaultInjector unchanged (armed/activated/cleared
// lifecycle events and trace spans come for free). Repairs race the
// cascade: each activation dispatches the first free eligible astronaut
// at the next crew schedule slot, and a finished repair clamps the
// component's down-window — cutting off any propagation that would have
// arrived later.
//
// Everything is expanded *before* the mission runs, and every draw is a
// splitmix64 hash of (seed, edge index, draw ordinal): the result is a
// pure function of (seed, graph, roots), which is what lets
// determinism_test pin cascade missions byte-for-byte across thread
// counts. docs/RESILIENCE.md documents the propagation semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crew/schedule.hpp"
#include "faults/fault_plan.hpp"
#include "scenario/dependency_graph.hpp"
#include "util/units.hpp"

namespace hs::scenario {

/// Who may repair, and how fast the habitat notices a failed module.
struct RepairPolicy {
  bool enabled = false;
  SimDuration reaction = minutes(30);  ///< detection + dispatch before work starts
  std::vector<std::size_t> crew{};     ///< astronaut indices eligible for repairs

  friend bool operator==(const RepairPolicy&, const RepairPolicy&) = default;
};

/// A root disruption: the named component goes down at `at` and — absent
/// repair — recovers on its own after `window`.
struct RootFailure {
  std::size_t component = 0;
  SimTime at = 0;
  SimDuration window = hours(8);

  friend bool operator==(const RootFailure&, const RootFailure&) = default;
};

/// One component down-window in the expanded cascade.
struct CascadeActivation {
  std::size_t component = 0;
  /// Index into CascadeResult::activations of the failure that propagated
  /// here; -1 for roots.
  std::ptrdiff_t parent = -1;
  SimTime at = 0;
  SimTime until = 0;  ///< effective end: natural recovery or finished repair
  bool repaired = false;         ///< a repair finished before natural recovery
  std::ptrdiff_t astronaut = -1; ///< crew index dispatched (-1: none / never fit)
  SimTime repair_start = -1;     ///< when the hands-on work began (-1: none)

  friend bool operator==(const CascadeActivation&, const CascadeActivation&) = default;
};

/// The fully-expanded scenario: activations in chronological order plus
/// the device-fault plan they emit (same order).
struct CascadeResult {
  faults::FaultPlan plan;
  std::vector<CascadeActivation> activations;
  std::size_t repairs = 0;       ///< activations cleared early by crew
  std::size_t dependents = 0;    ///< activations with a parent (non-roots)
};

class CascadeEngine {
 public:
  /// The graph must outlive the engine and must validate().
  CascadeEngine(const DependencyGraph& graph, std::uint64_t seed, RepairPolicy repair = {},
                crew::MissionTimetable timetable = {});

  /// Expand root failures into the full cascade. Pure: same (seed, graph,
  /// roots) => same result, byte for byte through the plan DSL.
  [[nodiscard]] CascadeResult expand(const std::vector<RootFailure>& roots,
                                     const std::string& plan_name) const;

 private:
  [[nodiscard]] double edge_unit(std::size_t edge, std::uint64_t ordinal) const;
  void emit_faults(const Component& component, SimTime at, SimTime until,
                   faults::FaultPlan& plan) const;

  const DependencyGraph& graph_;
  std::uint64_t seed_;
  RepairPolicy repair_;
  crew::MissionTimetable timetable_;
};

}  // namespace hs::scenario
