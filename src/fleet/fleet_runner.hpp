// Running a campaign: the fleet of habitats, sharded across the pool.
//
// run_habitat() runs one fully-wired mission (runner + support system fed
// from the mesh read view, the hs_trace wiring) and condenses it into a
// HabitatSummary. run_campaign() expands a CampaignSpec and runs every
// habitat with one habitat per parallel_for shard — each MissionRunner is
// self-contained (own registry, recorder, tracer, rng), so habitats never
// share mutable state — then folds the summaries Earth-side in habitat-
// index order through the FleetAggregator's 20-minute link. Summaries are
// written only into per-index slots and the fold is serial, so per
// docs/CONCURRENCY.md the campaign report is byte-identical across thread
// counts; the fleet determinism tests diff the dump directly.
#pragma once

#include "fleet/aggregator.hpp"
#include "fleet/campaign.hpp"
#include "util/expected.hpp"
#include "util/units.hpp"

namespace hs::fleet {

struct CampaignOptions {
  /// parallel_for shards; 0 = hardware concurrency, 1 = serial reference.
  unsigned threads = 1;
  /// How often each habitat's support system samples the mesh health feed.
  SimDuration support_cadence = minutes(5);
  /// A badge whose newest surviving chunk is older than this at sample
  /// time reads as dark (active = false).
  SimDuration stale_after = minutes(10);
  /// Habitat -> Earth summary link delay (the paper's 20 minutes).
  SimDuration link_delay = minutes(20);
  /// Run the offline analysis pipeline on each habitat's dataset and fold
  /// its pipeline.* metrics and records_analyzed into the summary. Off by
  /// default: analysis multiplies per-habitat cost and campaign studies
  /// usually only need the mission-side telemetry.
  bool analyze = false;
};

/// Run one habitat's mission and condense it into its downlink summary.
/// A pure function of (spec, options): same inputs, same summary bytes.
[[nodiscard]] HabitatSummary run_habitat(const HabitatSpec& spec,
                                         const CampaignOptions& options = {});

/// Expand and run the whole campaign, then fold Earth-side. Errors when
/// the spec fails validate(); otherwise every habitat runs and the report
/// covers all of them.
[[nodiscard]] Expected<FleetReport> run_campaign(const CampaignSpec& spec,
                                                 const CampaignOptions& options = {});

}  // namespace hs::fleet
