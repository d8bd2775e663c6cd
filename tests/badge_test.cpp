// Unit tests for the badge device model: battery, SD card, wear state
// machine, sensor frames, scanning, and the badge network.
#include <gtest/gtest.h>

#include <optional>

#include "badge/badge.hpp"
#include "badge/network.hpp"
#include "beacon/beacon.hpp"
#include "io/binlog.hpp"

namespace hs::badge {
namespace {

/// A test bearer standing at a fixed position.
class StaticWearer final : public Wearer {
 public:
  explicit StaticWearer(Vec2 pos, bool walking = false, double muffle = 0.0)
      : pos_(pos), walking_(walking), muffle_(muffle) {}

  [[nodiscard]] Vec2 position() const override { return pos_; }
  [[nodiscard]] double facing() const override { return 0.0; }
  [[nodiscard]] MotionSample motion() const override {
    MotionSample m;
    m.walking = walking_;
    m.speed_mps = walking_ ? 1.2 : 0.0;
    return m;
  }
  [[nodiscard]] double mic_attenuation_db() const override { return muffle_; }

  Vec2 pos_;
  bool walking_;
  double muffle_;
};

/// A constant environment with configurable speech.
class FixedEnvironment final : public EnvironmentModel {
 public:
  [[nodiscard]] AmbientSample ambient_at(Vec2 /*pos*/, SimTime /*now*/) const override {
    return sample_;
  }
  AmbientSample sample_;
};

// ----------------------------------------------------------------- battery

TEST(Battery, DrainsWhenActive) {
  Battery b;
  const double before = b.charge_mah();
  b.step(hours(1), Battery::Mode::kActive);
  EXPECT_NEAR(before - b.charge_mah(), b.params().active_draw_ma, 1e-9);
}

TEST(Battery, ChargesWhenDocked) {
  Battery b;
  b.step(hours(10), Battery::Mode::kActive);
  const double low = b.charge_mah();
  b.step(hours(1), Battery::Mode::kCharging);
  EXPECT_NEAR(b.charge_mah() - low, b.params().charge_ma, 1e-9);
}

TEST(Battery, ClampsAtCapacity) {
  Battery b;
  b.step(hours(100), Battery::Mode::kCharging);
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
}

TEST(Battery, SurvivesDutyDayButNotTwo) {
  // The paper's constraint: badges must be charged overnight.
  Battery b;
  b.step(hours(14), Battery::Mode::kActive);
  EXPECT_FALSE(b.depleted());
  b.step(hours(14), Battery::Mode::kActive);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, OvernightChargeRestores) {
  Battery b;
  b.step(hours(14), Battery::Mode::kActive);
  b.step(hours(10), Battery::Mode::kCharging);
  EXPECT_GT(b.fraction(), 0.9);
}

// ------------------------------------------------------------------ SD card

TEST(SdCard, AccountsRawBytes) {
  SdCard sd;
  sd.account_raw(1000.0);
  sd.account_raw(500.0);
  EXPECT_EQ(sd.bytes_written(), 1500);
}

TEST(SdCard, CountsRecords) {
  SdCard sd;
  sd.log(io::BeaconObs{});
  sd.log(io::AudioFrame{});
  sd.log(io::WearEvent{});
  EXPECT_EQ(sd.record_count(), 3u);
  EXPECT_GT(sd.bytes_written(), 0);
}

TEST(SdCard, ExportBinlogRoundTrips) {
  SdCard sd;
  sd.log(io::BeaconObs{10, 1, 2, -60});
  sd.log(io::SyncSample{100, 120, 1});
  const auto bytes = sd.export_binlog();
  std::size_t seen = 0;
  io::BinLogVisitor v;
  v.on_beacon_obs = [&](const io::BeaconObs& r) {
    EXPECT_EQ(r.t, 10u);
    ++seen;
  };
  v.on_sync_sample = [&](const io::SyncSample& r) {
    EXPECT_EQ(r.ref, 120u);
    ++seen;
  };
  ASSERT_TRUE(io::replay_binlog(bytes, v).has_value());
  EXPECT_EQ(seen, 2u);
}

// -------------------------------------------------------------------- badge

class BadgeTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  Vec2 kitchen_ = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
  Badge badge_{0, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  FixedEnvironment env_;
  Rng rng_{7};
};

TEST_F(BadgeTest, WearStateMachineLogsEvents) {
  StaticWearer wearer(kitchen_);
  badge_.dock({0, 0}, 0);
  badge_.put_on(&wearer, seconds(10));
  EXPECT_TRUE(badge_.worn());
  badge_.take_off(kitchen_, seconds(20));
  EXPECT_FALSE(badge_.worn());
  EXPECT_TRUE(badge_.active());
  badge_.dock({0, 0}, seconds(30));
  EXPECT_FALSE(badge_.active());

  // Badges boot in the Off state, so the initial dock() is a no-op.
  const auto& events = badge_.sd().wear();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].state, io::WearState::kWorn);
  EXPECT_EQ(events[1].state, io::WearState::kActiveIdle);
  EXPECT_EQ(events[2].state, io::WearState::kOff);
}

TEST_F(BadgeTest, PositionFollowsWearer) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  EXPECT_EQ(badge_.position(), kitchen_);
  wearer.pos_ = kitchen_ + Vec2{1.0, 0.0};
  EXPECT_EQ(badge_.position(), wearer.pos_);
  badge_.take_off({1.0, 2.0}, seconds(1));
  EXPECT_EQ(badge_.position(), (Vec2{1.0, 2.0}));
}

TEST_F(BadgeTest, WornWalkingProducesGaitFrames) {
  StaticWearer wearer(kitchen_, /*walking=*/true);
  badge_.put_on(&wearer, 0);
  for (int i = 0; i < 60; ++i) badge_.tick_frames(seconds(i), env_, rng_);
  const auto& motion = badge_.sd().motion();
  ASSERT_EQ(motion.size(), 60u);
  for (const auto& f : motion) {
    EXPECT_GT(f.step_freq_hz, 0.8F);
    EXPECT_GT(f.accel_var, 1.0F);
  }
}

TEST_F(BadgeTest, IdleBadgeSeesNoiseFloor) {
  badge_.take_off(kitchen_, 0);
  for (int i = 0; i < 30; ++i) badge_.tick_frames(seconds(i), env_, rng_);
  for (const auto& f : badge_.sd().motion()) {
    EXPECT_LT(f.accel_var, 0.05F);
    EXPECT_EQ(f.step_freq_hz, 0.0F);
  }
}

TEST_F(BadgeTest, AudioFrameReflectsSpeechField) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  env_.sample_.speech_db = 66.0;
  env_.sample_.voiced_fraction = 0.7;
  env_.sample_.dominant_f0_hz = 200.0;
  badge_.tick_frames(0, env_, rng_);
  const auto& audio = badge_.sd().audio();
  ASSERT_EQ(audio.size(), 1u);
  EXPECT_NEAR(audio[0].level_db, 66.0F, 4.0F);
  EXPECT_FLOAT_EQ(audio[0].dominant_f0_hz, 200.0F);
}

TEST_F(BadgeTest, MuffledMicAttenuates) {
  StaticWearer wearer(kitchen_, false, /*muffle=*/10.0);
  badge_.put_on(&wearer, 0);
  env_.sample_.speech_db = 66.0;
  env_.sample_.voiced_fraction = 0.7;
  badge_.tick_frames(0, env_, rng_);
  EXPECT_LT(badge_.sd().audio()[0].level_db, 61.0F);
}

TEST_F(BadgeTest, RawBytesAccountedOnlyWhileActive) {
  badge_.dock({0, 0}, 0);
  badge_.tick_frames(0, env_, rng_);
  const auto docked_bytes = badge_.sd().bytes_written();
  badge_.undock(seconds(1));
  badge_.tick_frames(seconds(1), env_, rng_);
  EXPECT_GT(badge_.sd().bytes_written(), docked_bytes + 30000);
}

TEST_F(BadgeTest, DepletedBadgeStopsLogging) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  // Burn through the battery (no overnight charge).
  for (int h = 0; h < 40; ++h) badge_.battery().step(hours(1), Battery::Mode::kActive);
  EXPECT_TRUE(badge_.battery().depleted());
  const auto records_before = badge_.sd().record_count();
  badge_.tick_frames(seconds(1), env_, rng_);
  EXPECT_EQ(badge_.sd().record_count(), records_before);
  EXPECT_FALSE(badge_.active());
}

TEST_F(BadgeTest, DueStaggersByBadgeId) {
  Badge a{0, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  Badge b{1, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  // Period 5: badge 0 fires at t=0,5s,...; badge 1 at 4s,9s,...
  EXPECT_TRUE(a.due(0, 5));
  EXPECT_FALSE(b.due(0, 5));
  EXPECT_TRUE(b.due(seconds(4), 5));
}

TEST_F(BadgeTest, ScanLogsSameRoomBeacons) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  const auto beacons = beacon::deploy_lunares_beacons(habitat_);
  radio::Channel ble(habitat_, habitat::kBleChannel);
  std::vector<const beacon::Beacon*> candidates;
  std::vector<double> mean_dbm(beacons.size());  // by beacon id (dense from 0)
  for (const auto& b : beacons) {
    if (b.room == habitat::RoomId::kKitchen) candidates.push_back(&b);
    mean_dbm[b.id] = ble.mean_rssi(b.position, badge_.position());
  }
  ASSERT_GE(candidates.size(), 2u);
  badge_.scan_beacons(0, candidates, mean_dbm, ble, rng_);
  EXPECT_EQ(badge_.sd().beacon_obs().size(), candidates.size());
}

TEST_F(BadgeTest, SyncRecordsReferenceTime) {
  timesync::DriftingClock ref(0, 0.0, 0);
  badge_.record_sync(seconds(100), ref);
  const auto& sync = badge_.sd().sync();
  ASSERT_EQ(sync.size(), 1u);
  EXPECT_EQ(sync[0].ref, 100'000u);
}

// ------------------------------------------------------------------ network

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : beacons_(beacon::deploy_lunares_beacons(habitat_)),
        network_(habitat_, beacons_, habitat_.room(habitat::RoomId::kBedroom).bounds.center()) {
    network_.set_environment(env_);
  }

  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  std::vector<beacon::Beacon> beacons_;
  BadgeNetwork network_;
  FixedEnvironment env_;
  Rng rng_{11};
};

TEST_F(NetworkTest, ReferenceBadgeIsActiveAndPowered) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  const Badge* ref = network_.reference();
  ASSERT_NE(ref, nullptr);
  EXPECT_TRUE(ref->active());
  EXPECT_TRUE(ref->external_power());
}

TEST_F(NetworkTest, TickProducesScansForWornBadges) {
  Badge* badge = network_.add_badge(0, timesync::DriftingClock(0, 0.0, 0));
  StaticWearer wearer(habitat_.room(habitat::RoomId::kOffice).bounds.center());
  badge->undock(0);
  badge->put_on(&wearer, 0);
  for (int i = 0; i < 10; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(badge->sd().beacon_obs().size(), 10u);
  // All observations from office (or leaked neighbours) — mostly office.
  int office_obs = 0;
  for (const auto& o : badge->sd().beacon_obs()) {
    for (const auto& b : beacons_) {
      if (b.id == o.beacon && b.room == habitat::RoomId::kOffice) ++office_obs;
    }
  }
  EXPECT_GT(office_obs, static_cast<int>(badge->sd().beacon_obs().size() * 3 / 4));
}

TEST_F(NetworkTest, ProximityPingsFlowBetweenNearbyBadges) {
  Badge* a = network_.add_badge(0, timesync::DriftingClock(0, 0.0, 0));
  Badge* b = network_.add_badge(1, timesync::DriftingClock(0, 0.0, 0));
  const Vec2 pos = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
  StaticWearer wa(pos);
  StaticWearer wb(pos + Vec2{1.0, 0.0});
  a->put_on(&wa, 0);
  b->put_on(&wb, 0);
  for (int i = 0; i < 30; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(a->sd().pings().size(), 0u);
  EXPECT_GT(b->sd().pings().size(), 0u);
  EXPECT_EQ(a->sd().pings()[0].sender, 1);
}

TEST_F(NetworkTest, DockedBadgesSyncWithReference) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  Badge* badge = network_.add_badge(0, timesync::DriftingClock(0, 25.0, 99));
  ASSERT_TRUE(badge->docked());
  // Sync period is 300 s by default: tick through 20 minutes.
  for (int i = 0; i < 1200; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GE(badge->sd().sync().size(), 3u);
}

/// BeaconObs logged by the tick at `t` (with Rng(7)) of a one-badge
/// network whose wearer stands at `at`. With `warm_at`, the network has
/// ticked once before with the wearer there, so the link means it cached
/// belong to the old position. `down` lists dark beacons.
std::vector<io::BeaconObs> obs_at(const habitat::Habitat& habitat,
                                  const std::vector<beacon::Beacon>& beacons, Vec2 at,
                                  std::optional<Vec2> warm_at, std::vector<io::BeaconId> down) {
  FixedEnvironment env;
  BadgeNetwork network(habitat, beacons, habitat.room(habitat::RoomId::kBedroom).bounds.center());
  network.set_environment(env);
  Badge* badge = network.add_badge(0, timesync::DriftingClock(0, 0.0, 0));
  StaticWearer wearer(warm_at.value_or(at));
  badge->put_on(&wearer, 0);
  for (const io::BeaconId id : down) network.set_beacon_down(id, true);
  const SimTime t = seconds(2);
  if (warm_at) {
    Rng warm(3);
    network.tick(seconds(1), warm);
    EXPECT_FALSE(badge->sd().beacon_obs().empty());
    wearer.pos_ = at;
  }
  const std::size_t before = badge->sd().beacon_obs().size();
  Rng rng(7);
  network.tick(t, rng);
  const auto& all = badge->sd().beacon_obs();
  return {all.begin() + static_cast<std::ptrdiff_t>(before), all.end()};
}

TEST_F(NetworkTest, MovedBadgeDoesNotScanWithStaleLinkMeans) {
  const auto& kitchen = habitat_.room(habitat::RoomId::kKitchen).bounds;
  const Vec2 p1 = kitchen.center() + Vec2{-1.0, -1.0};
  const Vec2 p2 = kitchen.center() + Vec2{1.0, 1.0};  // 2.8 m away, same candidate beacons
  const auto fresh = obs_at(habitat_, beacons_, p2, std::nullopt, {});
  ASSERT_FALSE(fresh.empty());
  EXPECT_NE(fresh, obs_at(habitat_, beacons_, p1, std::nullopt, {}));  // the move is visible
  EXPECT_EQ(obs_at(habitat_, beacons_, p2, p1, {}), fresh);

  // The same with one of the kitchen beacons dark (the outage subset).
  io::BeaconId dark = 0;
  for (const auto& b : beacons_) {
    if (b.room == habitat::RoomId::kKitchen) dark = b.id;
  }
  const auto fresh_outage = obs_at(habitat_, beacons_, p2, std::nullopt, {dark});
  ASSERT_FALSE(fresh_outage.empty());
  for (const auto& o : fresh_outage) EXPECT_NE(o.beacon, dark);
  EXPECT_EQ(obs_at(habitat_, beacons_, p2, p1, {dark}), fresh_outage);
}

TEST_F(NetworkTest, TotalBytesAggregates) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  for (int i = 0; i < 10; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(network_.total_bytes(), 0);
}

}  // namespace
}  // namespace hs::badge
