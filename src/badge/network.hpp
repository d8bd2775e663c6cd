// The deployed badge fleet plus its shared radio environment.
//
// BadgeNetwork owns every badge (crew badges, the reference badge at the
// charging station, unused backups), the beacon set and the channel models,
// and advances the whole sensing layer one simulated second at a time. It
// is the "30+ wireless sensors" of the title wired together.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "badge/badge.hpp"
#include "badge/wearer.hpp"
#include "beacon/beacon.hpp"
#include "habitat/habitat.hpp"
#include "radio/channel.hpp"
#include "radio/ir.hpp"
#include "util/rng.hpp"

namespace hs::badge {

class BadgeNetwork {
 public:
  BadgeNetwork(const habitat::Habitat& habitat, std::vector<beacon::Beacon> beacons,
               Vec2 charging_station, habitat::ChannelParams ble = habitat::kBleChannel,
               habitat::ChannelParams subghz = habitat::kSubGhzChannel);

  /// Wire the world model the badge sensors sample. Must be set before the
  /// first tick (the crew simulator provides it, and needs the network to
  /// exist first).
  void set_environment(const EnvironmentModel& env) { env_ = &env; }

  /// Create and register a badge. The network keeps ownership; the returned
  /// pointer stays valid for the network's lifetime.
  Badge* add_badge(io::BadgeId id, timesync::DriftingClock clock, BadgeParams params = {});

  /// Create the permanently-charged reference badge at the station. It
  /// samples environmental sensors and serves as the fleet's time source.
  Badge* add_reference_badge(timesync::DriftingClock clock, BadgeParams params = {});

  /// Advance the sensing layer by one second ending at `now`.
  void tick(SimTime now, Rng& rng);

  [[nodiscard]] Badge* badge(io::BadgeId id);
  [[nodiscard]] const Badge* badge(io::BadgeId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Badge>>& badges() const { return badges_; }
  [[nodiscard]] const std::vector<beacon::Beacon>& beacons() const { return beacons_; }
  [[nodiscard]] Vec2 charging_station() const { return station_; }
  [[nodiscard]] const Badge* reference() const { return reference_; }
  [[nodiscard]] const habitat::Habitat& habitat() const { return *habitat_; }

  /// Total bytes across all SD cards (the paper's "150 GiB of data").
  [[nodiscard]] std::int64_t total_bytes() const;

  // --- fault hooks (driven by hs::faults) ----------------------------------
  /// Mark a beacon dark (power loss, firmware hang): its advertisements
  /// vanish from scan windows until the outage clears.
  void set_beacon_down(io::BeaconId id, bool down);
  [[nodiscard]] bool beacon_down(io::BeaconId id) const;
  /// Add extra path loss to one of the shared channels (interference,
  /// antenna damage); additive, so pass the negative to unwind.
  void add_channel_loss(io::Band band, double db);
  [[nodiscard]] const radio::Channel& channel(io::Band band) const;

 private:
  /// Beacons audible from a room: same room or adjacent (two metal walls
  /// put everything else > 30 dB below sensitivity, so they are skipped).
  [[nodiscard]] const std::vector<const beacon::Beacon*>& candidates_for(habitat::RoomId room) const;

  /// BLE link means from `beacons` to badge `slot` at `rx`, indexed by
  /// beacon id. A mean is computed only when the badge has moved since its
  /// last scan or the beacon is new to it; mean_rssi is a pure function of
  /// the two positions and the fixed geometry, so reuse is exact.
  std::span<const double> link_means(std::size_t slot, Vec2 rx,
                                     const std::vector<const beacon::Beacon*>& beacons);

  const habitat::Habitat* habitat_;
  std::vector<beacon::Beacon> beacons_;
  Vec2 station_;
  const EnvironmentModel* env_ = nullptr;
  radio::Channel ble_;
  radio::Channel subghz_;
  radio::IrLink ir_;
  std::vector<std::unique_ptr<Badge>> badges_;
  Badge* reference_ = nullptr;
  // candidate lists indexed by room (kRoomCount entries + 1 for kNone).
  std::vector<std::vector<const beacon::Beacon*>> candidates_;
  // Fault state: one flag per beacon id; count kept so the no-fault scan
  // path stays allocation-free. scan_scratch_ holds the filtered candidate
  // list while an outage is active.
  std::vector<std::uint8_t> beacon_down_;
  std::size_t beacons_down_ = 0;
  std::vector<const beacon::Beacon*> scan_scratch_;
  // BLE link-mean cache, one row of beacon_ids_ entries per badge slot:
  // scan_at_[slot] is where the badge stood at its last scan, and
  // link_mean_[slot * beacon_ids_ + id] the mean from beacon `id` to there,
  // valid when link_known_ at the same index is set. Sized on the first
  // tick, once every badge exists.
  std::size_t beacon_ids_ = 0;
  std::vector<Vec2> scan_at_;
  std::vector<double> link_mean_;
  std::vector<std::uint8_t> link_known_;
};

}  // namespace hs::badge
