#include "badge/badge.hpp"

#include <algorithm>
#include <cmath>

namespace hs::badge {
namespace {

/// Accelerometer-magnitude variance for a walking bearer ((m/s^2)^2);
/// grows mildly with gait speed.
double walking_accel_var(double speed_mps, Rng& rng) {
  return std::max(0.5, 2.8 + 1.2 * speed_mps + rng.normal(0.0, 0.35));
}

/// Step frequency from gait speed (stride ~0.7 m).
double step_frequency(double speed_mps, Rng& rng) {
  return std::clamp(speed_mps / 0.7 + rng.normal(0.0, 0.08), 0.8, 3.0);
}

}  // namespace

Badge::Badge(io::BadgeId id, timesync::DriftingClock clock, BadgeParams params)
    : id_(id), clock_(clock), params_(params), battery_(params.battery) {}

void Badge::set_wear_state(io::WearState state, SimTime now) {
  if (state == wear_state_) return;
  wear_state_ = state;
  // Wear transitions are logged even while docking: the on-body detector
  // fires on the way to the charger.
  if (!battery_.depleted()) {
    sd_.log(io::WearEvent{local_ms(now), id_, state});
  }
}

void Badge::put_on(const Wearer* wearer, SimTime now) {
  wearer_ = wearer;
  docked_ = false;
  set_wear_state(io::WearState::kWorn, now);
}

void Badge::take_off(Vec2 left_at, SimTime now) {
  wearer_ = nullptr;
  rest_position_ = left_at;
  docked_ = false;
  set_wear_state(io::WearState::kActiveIdle, now);
}

void Badge::dock(Vec2 station, SimTime now) {
  wearer_ = nullptr;
  rest_position_ = station;
  docked_ = true;
  set_wear_state(io::WearState::kOff, now);
}

void Badge::undock(SimTime now) {
  docked_ = false;
  set_wear_state(io::WearState::kActiveIdle, now);
}

Vec2 Badge::position() const { return wearer_ != nullptr ? wearer_->position() : rest_position_; }

double Badge::facing() const { return wearer_ != nullptr ? wearer_->facing() : 0.0; }

bool Badge::due(SimTime now, int period_s) const {
  const auto sec = now / kSecond;
  return period_s > 0 && (sec + id_) % period_s == 0;
}

void Badge::tick_frames(SimTime now, const EnvironmentModel& env, Rng& rng) {
  // Battery first: a badge that dies mid-second logs nothing more.
  Battery::Mode mode = Battery::Mode::kOff;
  if ((docked_ || external_power_) && !charge_inhibited_) {
    mode = Battery::Mode::kCharging;
  } else if (wear_state_ == io::WearState::kWorn) {
    mode = Battery::Mode::kActive;
  } else if (wear_state_ == io::WearState::kActiveIdle) {
    mode = Battery::Mode::kIdle;
  }
  battery_.step(kSecond, mode);
  if (battery_.depleted()) {
    if (!was_depleted_) {
      was_depleted_ = true;
      wear_state_ = io::WearState::kOff;  // brown-out: no event record
    }
    return;
  }
  was_depleted_ = false;
  if (!active()) return;

  sd_.account_raw(kRawBytesPerActiveSecond);

  const io::LocalMs t = local_ms(now);

  // Motion frame: worn badges see the bearer's gait; idle badges see the
  // sensor noise floor.
  io::MotionFrame motion{t, id_, 0.0F, 0.0F};
  if (worn()) {
    const MotionSample m = wearer_->motion();
    if (m.walking) {
      motion.accel_var = static_cast<float>(walking_accel_var(m.speed_mps, rng));
      motion.step_freq_hz = static_cast<float>(step_frequency(m.speed_mps, rng));
    } else {
      motion.accel_var =
          static_cast<float>(std::max(0.005, m.activity * 0.35 + rng.normal(0.0, 0.03)));
      motion.step_freq_hz = 0.0F;
    }
  } else {
    motion.accel_var = static_cast<float>(std::max(0.0, rng.normal(0.002, 0.001)));
  }
  sd_.log(motion);

  // Audio frame: the sound field at the badge, attenuated if worn badly.
  const AmbientSample amb = env.ambient_at(position(), now);
  const double muffle = worn() ? wearer_->mic_attenuation_db() : 0.0;
  const double speech_db = amb.speech_db > 0.0 ? amb.speech_db - muffle : 0.0;
  const double level = std::max(amb.noise_db, speech_db) + rng.normal(0.0, 0.8);
  io::AudioFrame audio{t, id_, static_cast<float>(level),
                       static_cast<float>(std::clamp(amb.voiced_fraction, 0.0, 1.0)),
                       static_cast<float>(amb.dominant_f0_hz)};
  sd_.log(audio);

  // Environmental frame once a minute.
  if (due(now, 60)) {
    sd_.log(io::EnvFrame{t, id_, static_cast<float>(amb.temperature_c + rng.normal(0.0, 0.1)),
                         static_cast<float>(amb.pressure_hpa + rng.normal(0.0, 0.2)),
                         static_cast<float>(std::max(0.0, amb.light_lux + rng.normal(0.0, 10.0)))});
  }
}

void Badge::scan_beacons(SimTime now, const std::vector<const beacon::Beacon*>& candidates,
                         std::span<const double> mean_dbm, const radio::Channel& ble, Rng& rng) {
  if (!active()) return;
  const io::LocalMs t = local_ms(now);
  for (const beacon::Beacon* b : candidates) {
    // A beacon sends ~ads_per_scan advertisements per scan window; the
    // badge logs the strongest decoded one.
    const double mean = mean_dbm[b->id];
    std::optional<int> best;
    for (int i = 0; i < params_.ads_per_scan; ++i) {
      if (const auto rssi = ble.try_receive_mean(mean, rng)) {
        if (!best || *rssi > *best) best = *rssi;
      }
    }
    if (best) {
      sd_.log(io::BeaconObs{t, id_, b->id, static_cast<std::int8_t>(std::clamp(*best, -127, 0))});
    }
  }
}

void Badge::receive_ping(SimTime now, io::BadgeId sender, int rssi_dbm, io::Band band) {
  if (!active()) return;
  sd_.log(io::ProximityPing{local_ms(now), id_, sender,
                            static_cast<std::int8_t>(std::clamp(rssi_dbm, -127, 0)), band});
}

void Badge::receive_ir(SimTime now, io::BadgeId sender) {
  if (!active()) return;
  sd_.log(io::IrContact{local_ms(now), id_, sender});
}

void Badge::record_sync(SimTime now, const timesync::DriftingClock& reference_clock) {
  if (battery_.depleted()) return;
  sd_.log(io::SyncSample{local_ms(now), reference_clock.local_ms(now), id_});
}

}  // namespace hs::badge
