// Earth-side fleet aggregation.
//
// Each habitat condenses its mission into a HabitatSummary — alert counts
// by kind, record/chunk totals, replication-ack latencies, offload-gap
// samples, dark badges, and its full metrics snapshot — and transmits it
// to Earth over the same 20-minute DelayedChannel the paper's mission
// control sits behind. The FleetAggregator receives summaries as the link
// delivers them and folds them into a FleetReport: the cross-habitat
// questions (alert rates per habitat-day, ack-latency percentiles,
// badge-failure distribution) no single mission can answer.
//
// Determinism contract: report() sorts received summaries by habitat
// index before folding, so the aggregate dump is a pure function of the
// set of summaries — independent of arrival order, submission order, and
// the thread count that produced them. docs/FLEET.md documents the dump
// format.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "support/alert.hpp"
#include "support/earthlink.hpp"
#include "util/units.hpp"

namespace hs::fleet {

/// Number of support::AlertKind values (the per-kind count arrays below
/// index by static_cast<std::size_t>(kind)).
inline constexpr std::size_t kAlertKindCount = 8;

/// One habitat's mission, condensed for the downlink. Built by
/// run_habitat(); everything here is a pure function of the HabitatSpec.
struct HabitatSummary {
  std::size_t index = 0;         ///< habitat's position in the campaign
  std::uint64_t seed = 0;
  int days = 0;
  int crew = 6;
  int beacons = 27;
  std::string fault_preset;
  std::string cascade;           ///< cascade scenario preset ("none" if off)
  SimTime finished_at = 0;       ///< mission end (submission instant)

  std::array<std::uint64_t, kAlertKindCount> alert_counts{};
  std::uint64_t records_written = 0;    ///< badge.sd_records_written
  /// Records the habitat's analysis pass attributed to astronauts
  /// (pipeline.records_attributed); 0 unless CampaignOptions::analyze.
  std::uint64_t records_analyzed = 0;
  std::uint64_t chunks_offloaded = 0;   ///< record chunks accepted by the mesh
  std::uint64_t chunks_acked = 0;       ///< reached the replication factor
  /// Badges whose last offload trails the habitat's last offload activity
  /// by more than the staleness window — the mesh's definition of a failed
  /// badge (it cannot report its own death). Measured against fleet
  /// activity rather than wall clock so an overnight docked crew does not
  /// read as dead.
  std::uint64_t dark_badges = 0;
  /// Seconds from offload to the replication ack, one sample per acked
  /// record chunk.
  std::vector<double> ack_latencies_s;
  /// Seconds between a badge's consecutive offloads, per badge in badge-id
  /// order. Gaps stretch when nodes die or partitions form.
  std::vector<double> offload_gaps_s;
  /// The habitat's full metrics snapshot, rolled up fleet-wide via
  /// MetricsSnapshot::accumulate.
  obs::MetricsSnapshot metrics;
};

/// Percentile summary of one sample population (nearest-rank on the
/// sorted samples; all zeros when the population is empty).
struct DistStats {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  friend bool operator==(const DistStats&, const DistStats&) = default;
};

/// Compute nearest-rank percentiles over `samples` (copied and sorted).
[[nodiscard]] DistStats dist_stats(std::vector<double> samples);

/// The fleet-wide fold of every received HabitatSummary.
struct FleetReport {
  std::string campaign;
  std::size_t habitats = 0;
  std::uint64_t habitat_days = 0;

  std::array<std::uint64_t, kAlertKindCount> alert_counts{};
  std::uint64_t alerts_total = 0;

  std::uint64_t records_written = 0;
  std::uint64_t records_analyzed = 0;
  std::uint64_t chunks_offloaded = 0;
  std::uint64_t chunks_acked = 0;

  std::uint64_t dark_badges = 0;
  std::size_t habitats_with_dark = 0;   ///< habitats reporting >= 1 dark badge

  DistStats ack_latency;   ///< seconds, across every acked chunk fleet-wide
  DistStats offload_gap;   ///< seconds, across every badge fleet-wide

  /// Fleet roll-up of every habitat's metrics snapshot (counters and
  /// histograms sum; gauges sum — divide by `habitats` for means).
  obs::MetricsSnapshot metrics;

  /// Deterministic `section,key,value` dump (byte-identical for equal
  /// reports; doubles in shortest-round-trip form). The campaign
  /// determinism tests diff this across thread counts and process runs.
  [[nodiscard]] std::string to_csv() const;
};

/// Mission control's end of the downlink: habitats submit summaries, the
/// 20-minute link delays them, pump() receives what has arrived, report()
/// folds the received set.
class FleetAggregator {
 public:
  explicit FleetAggregator(SimDuration link_delay = minutes(20)) : link_(link_delay) {}

  /// Put a habitat's summary on the downlink at `now` (its mission end).
  void submit(SimTime now, HabitatSummary summary) { link_.send(now, std::move(summary)); }

  /// Receive every summary the link has delivered by `now`. Returns how
  /// many arrived this call.
  std::size_t pump(SimTime now);

  [[nodiscard]] std::size_t received() const { return received_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return link_.in_flight(); }
  [[nodiscard]] SimDuration link_delay() const { return link_.delay(); }

  /// Fold the received summaries (sorted by habitat index first — the
  /// determinism contract) into a FleetReport.
  [[nodiscard]] FleetReport report(const std::string& campaign_name) const;

 private:
  support::DelayedChannel<HabitatSummary> link_;
  std::vector<HabitatSummary> received_;
};

}  // namespace hs::fleet
