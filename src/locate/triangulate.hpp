// In-room position estimation ("triangulation" in the paper).
//
// Within the detected room, a power-weighted centroid of the audible
// same-room beacons gives the dominant position for each one-second frame.
// The paper notes accuracy was high "even without employing the inertial
// sensors of a badge" because of dense beacon placement; a weighted
// centroid reproduces that behaviour and degrades gracefully with noise.
//
// fixes() reads the (t_s, beacon, rssi) column slices a RecordBatch or
// PersonColumns provides, so fig3 never materializes row structs out of
// the columns (docs/PERFORMANCE.md, "Artifact layer").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "beacon/beacon.hpp"
#include "habitat/habitat.hpp"
#include "locate/room_classifier.hpp"
#include "util/vec2.hpp"

namespace hs::locate {

/// One position estimate for a one-second frame.
struct PositionFix {
  double t_s = 0.0;
  Vec2 position;
  habitat::RoomId room = habitat::RoomId::kNone;
};

// Thread-safety: configured at construction, stateless const queries —
// safe to share across the per-astronaut heatmap shards.
class Triangulator {
 public:
  Triangulator(const habitat::Habitat& habitat, const std::vector<beacon::Beacon>& beacons,
               double bin_s = 1.0);

  /// Estimate positions for each bin of a time-sorted observation stream
  /// given as contiguous columns, using the given room track to restrict
  /// to same-room beacons (cross-room leaks would otherwise drag the
  /// centroid through walls). A bin whose room has no audible same-room
  /// beacon gets a fix at the room centre. RSSI weights come from a
  /// 256-entry pow table: int8 has only 256 values and std::pow is a pure
  /// function, so each entry equals the per-record pow call bit for bit.
  [[nodiscard]] std::vector<PositionFix> fixes(const double* t_s, const io::BeaconId* beacon,
                                               const std::int8_t* rssi_dbm, std::size_t n,
                                               const std::vector<RoomStay>& track) const;

 private:
  const habitat::Habitat* habitat_;
  std::vector<beacon::Beacon> beacons_;  // indexed lookup by id below
  std::vector<std::size_t> index_;       // BeaconId -> index into beacons_
  std::array<double, 256> weights_{};    // weights_[rssi + 128] = pow(10, rssi/10)
  double bin_s_;
};

}  // namespace hs::locate
