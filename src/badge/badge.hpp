// The sociometric badge: device state plus firmware sampling logic.
//
// A badge is either worn by a bearer, active-but-idle where it was left,
// or docked on the charging station (off, charging, still answering time
// sync). Firmware steps are invoked by the BadgeNetwork once per simulated
// second; all records land on the badge's own SD card stamped with its
// drifting local clock.
#pragma once

#include <optional>
#include <span>

#include "badge/battery.hpp"
#include "badge/sdcard.hpp"
#include "badge/wearer.hpp"
#include "beacon/beacon.hpp"
#include "radio/channel.hpp"
#include "timesync/clock.hpp"
#include "util/rng.hpp"

namespace hs::badge {

struct BadgeParams {
  /// Seconds between BLE beacon scan windows.
  int scan_period_s = 1;
  /// Seconds between 868 MHz proximity ping broadcasts.
  int ping_period_s = 5;
  /// Seconds between IR handshake attempts.
  int ir_period_s = 10;
  /// Seconds between time-sync attempts with the reference badge.
  int sync_period_s = 300;
  /// Advertisement attempts sampled per scan window (~3 ads/s per beacon).
  int ads_per_scan = 3;
  BatteryParams battery{};
};

class Badge {
 public:
  Badge(io::BadgeId id, timesync::DriftingClock clock, BadgeParams params = {});

  // --- handling by the crew / deployment ---------------------------------
  void put_on(const Wearer* wearer, SimTime now);
  /// Take the badge off and leave it at `left_at`; it keeps sampling.
  void take_off(Vec2 left_at, SimTime now);
  /// Dock on the charging station at `station`: powered off + charging.
  void dock(Vec2 station, SimTime now);
  /// Pick the badge up from the charger without wearing it.
  void undock(SimTime now);

  /// Permanently powered (the reference badge): samples while charging.
  void set_external_power(bool on) { external_power_ = on; }
  [[nodiscard]] bool external_power() const { return external_power_; }

  // --- fault hooks (driven by hs::faults) ----------------------------------
  /// Charging stops working (failed cradle contact, badge left off the
  /// charger overnight). A docked badge sits at RTC draw instead of
  /// charging; clearing the inhibit restores normal charging — the
  /// "delayed recharge" the deployment hit.
  void set_charge_inhibited(bool inhibited) { charge_inhibited_ = inhibited; }
  [[nodiscard]] bool charge_inhibited() const { return charge_inhibited_; }

  /// Step the local millisecond counter by `ms` from now on (firmware
  /// glitch / counter corruption). Subsequent records carry the stepped
  /// timestamps; the offline fit must recover piecewise.
  void apply_clock_step(double ms) { clock_.apply_step(ms); }

  // --- state --------------------------------------------------------------
  [[nodiscard]] io::BadgeId id() const { return id_; }
  [[nodiscard]] io::WearState wear_state() const { return wear_state_; }
  [[nodiscard]] bool active() const {
    return wear_state_ != io::WearState::kOff && !battery_.depleted();
  }
  [[nodiscard]] bool worn() const { return wear_state_ == io::WearState::kWorn && !battery_.depleted(); }
  [[nodiscard]] bool docked() const { return docked_; }
  [[nodiscard]] Vec2 position() const;
  [[nodiscard]] double facing() const;
  [[nodiscard]] const Wearer* wearer() const { return wearer_; }

  [[nodiscard]] const timesync::DriftingClock& clock() const { return clock_; }
  [[nodiscard]] io::LocalMs local_ms(SimTime now) const { return clock_.local_ms(now); }
  [[nodiscard]] Battery& battery() { return battery_; }
  [[nodiscard]] const Battery& battery() const { return battery_; }
  [[nodiscard]] SdCard& sd() { return sd_; }
  [[nodiscard]] const SdCard& sd() const { return sd_; }
  /// Remove the SD card at mission end (moves the logs out). The card is
  /// detached from any metrics registry: the Dataset it ends up in may
  /// outlive the registry's owner.
  [[nodiscard]] SdCard take_sd() {
    SdCard card = std::move(sd_);
    card.set_metrics(nullptr, nullptr);
    return card;
  }
  [[nodiscard]] const BadgeParams& params() const { return params_; }

  // --- firmware steps (driven by BadgeNetwork) -----------------------------
  /// One-second housekeeping: battery, raw-stream accounting, sensor frames.
  void tick_frames(SimTime now, const EnvironmentModel& env, Rng& rng);

  /// BLE scan over candidate beacons; logs one BeaconObs per heard beacon.
  /// `mean_dbm[id]` is the mean RSSI of the link from beacon `id` to this
  /// badge's position (BadgeNetwork reuses it while the badge stands still).
  void scan_beacons(SimTime now, const std::vector<const beacon::Beacon*>& candidates,
                    std::span<const double> mean_dbm, const radio::Channel& ble, Rng& rng);

  /// Receive a proximity ping from `sender` (already decoded at rssi_dbm).
  void receive_ping(SimTime now, io::BadgeId sender, int rssi_dbm, io::Band band);

  /// Receive an IR handshake from `sender`.
  void receive_ir(SimTime now, io::BadgeId sender);

  /// Record a time-sync sample against the reference badge's clock.
  void record_sync(SimTime now, const timesync::DriftingClock& reference_clock);

  /// Whether a periodic action with period `period_s` fires this second
  /// (staggered by badge id so badges don't transmit in lockstep).
  [[nodiscard]] bool due(SimTime now, int period_s) const;

 private:
  void set_wear_state(io::WearState state, SimTime now);

  io::BadgeId id_;
  timesync::DriftingClock clock_;
  BadgeParams params_;
  Battery battery_;
  SdCard sd_;

  const Wearer* wearer_ = nullptr;
  Vec2 rest_position_{};
  io::WearState wear_state_ = io::WearState::kOff;
  bool docked_ = false;
  bool was_depleted_ = false;
  bool external_power_ = false;
  bool charge_inhibited_ = false;
};

}  // namespace hs::badge
