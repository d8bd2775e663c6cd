// Unit tests for packet reception and the IR link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "radio/channel.hpp"
#include "radio/ir.hpp"

namespace hs::radio {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  Channel ble_{habitat_, habitat::kBleChannel};
};

TEST_F(ChannelTest, StrongLinkAlwaysDecodes) {
  Rng rng(1);
  const Vec2 tx = habitat_.room(habitat::RoomId::kAtrium).bounds.center();
  int received = 0;
  for (int i = 0; i < 200; ++i) {
    if (ble_.try_receive(tx, tx + Vec2{1.0, 0.0}, rng)) ++received;
  }
  EXPECT_EQ(received, 200);
}

TEST_F(ChannelTest, ShieldedLinkAlmostNeverDecodes) {
  Rng rng(2);
  const Vec2 tx = habitat_.room(habitat::RoomId::kBedroom).bounds.center();
  const Vec2 rx = habitat_.room(habitat::RoomId::kStorage).bounds.center();  // across the atrium
  int received = 0;
  for (int i = 0; i < 500; ++i) {
    if (ble_.try_receive(tx, rx, rng)) ++received;
  }
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelTest, RssiQuantizedAndPlausible) {
  Rng rng(3);
  const Vec2 tx = habitat_.room(habitat::RoomId::kAtrium).bounds.center();
  const auto rssi = ble_.try_receive(tx, tx + Vec2{2.0, 0.0}, rng);
  ASSERT_TRUE(rssi.has_value());
  EXPECT_LE(*rssi, 0);
  EXPECT_GE(*rssi, -90);
}

// Reception probability must fall monotonically (within sampling noise)
// as distance grows through the sensitivity region.
class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, ReceptionProbabilityWithinBounds) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  Channel ble(habitat, habitat::kBleChannel);
  Rng rng(42);
  const Vec2 tx = habitat.room(habitat::RoomId::kAtrium).bounds.clamp({8.5, 0.5}, 0.2);
  const double d = GetParam();
  int received = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    if (ble.try_receive(tx, tx + Vec2{d, 0.0}, rng)) ++received;
  }
  const double p = static_cast<double>(received) / n;
  const double mean = ble.mean_rssi(tx, tx + Vec2{d, 0.0});
  if (mean > ble.params().sensitivity_dbm + 10.0) {
    EXPECT_GT(p, 0.95) << "d=" << d;
  }
  if (mean < ble.params().sensitivity_dbm - 10.0) {
    EXPECT_LT(p, 0.05) << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 6.0, 9.0));

// A scan reuses one link mean for many frames: reception from the mean
// must be try_receive exactly — same results and the same draws, so the
// two generators end in the same state.
TEST_F(ChannelTest, ReceptionFromMeanMatchesTryReceive) {
  ble_.add_extra_loss_db(1.5);
  const Vec2 tx = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
  // Receivers walk south out of the kitchen into the atrium, through the
  // door aperture and through the wall beside it: strong links, near-floor
  // ones (where the soft-edge bernoulli draws) and shielded ones.
  std::vector<Vec2> rx;
  for (double d = 0.3; d < 9.0; d += 0.37) {
    rx.push_back(tx + Vec2{0.3, -d});
    rx.push_back(tx + Vec2{1.5, -d});
  }
  bool near_floor = false;
  for (const Vec2 r : rx) {
    const double mean = ble_.mean_rssi(tx, r) - ble_.extra_loss_db();
    near_floor = near_floor || std::abs(mean - ble_.params().sensitivity_dbm) < 3.0;
  }
  ASSERT_TRUE(near_floor);

  // Reference: the reception as written before link means were reused,
  // one shadowing sample of the full propagation model per frame.
  const habitat::Propagation prop(habitat_, habitat::kBleChannel);
  const auto reference = [&](Vec2 r, Rng& rng) -> std::optional<int> {
    const double rssi = prop.sample_rssi(tx, r, rng) - ble_.extra_loss_db();
    const double floor = ble_.params().sensitivity_dbm;
    if (rssi < floor) return std::nullopt;
    const double margin = rssi - floor;
    if (margin < 3.0 && rng.bernoulli(0.5 * (1.0 - margin / 3.0))) return std::nullopt;
    return static_cast<int>(std::lround(std::clamp(rssi, -127.0, 0.0)));
  };

  Rng a(5);
  Rng b(5);
  Rng c(5);
  int decoded = 0;
  for (int i = 0; i < 10000; ++i) {
    const Vec2 r = rx[static_cast<std::size_t>(i) % rx.size()];
    const auto direct = ble_.try_receive(tx, r, a);
    const auto from_mean = ble_.try_receive_mean(ble_.mean_rssi(tx, r), b);
    ASSERT_EQ(direct, from_mean) << "draw " << i;
    ASSERT_EQ(direct, reference(r, c)) << "draw " << i;
    decoded += direct.has_value() ? 1 : 0;
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 10000);
  const std::uint64_t next = a.next_u64();
  EXPECT_EQ(b.next_u64(), next);
  EXPECT_EQ(c.next_u64(), next);
}

// ------------------------------------------------------------------------ IR

class IrTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  IrLink ir_{habitat_};
  Vec2 center_ = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
};

TEST_F(IrTest, FacingPairWithinRangeConnects) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  EXPECT_TRUE(ir_.geometry_ok(a, 0.0, b, M_PI));  // facing each other
}

TEST_F(IrTest, TooFarApartFails) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.8, 0.0};
  // 1.8 m < range, but push beyond max range:
  EXPECT_FALSE(ir_.geometry_ok(a, 0.0, a + Vec2{3.0, 0.0}, M_PI));
  EXPECT_TRUE(ir_.geometry_ok(a, 0.0, b, M_PI));
}

TEST_F(IrTest, FacingAwayFails) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  EXPECT_FALSE(ir_.geometry_ok(a, M_PI, b, M_PI));   // a faces away
  EXPECT_FALSE(ir_.geometry_ok(a, 0.0, b, 0.0));     // b faces away
}

TEST_F(IrTest, ConeEdgeBehaviour) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  const double half = ir_.params().cone_half_angle_rad;
  EXPECT_TRUE(ir_.geometry_ok(a, half - 0.05, b, M_PI));
  EXPECT_FALSE(ir_.geometry_ok(a, half + 0.05, b, M_PI));
}

TEST_F(IrTest, WallsBlockIr) {
  const Vec2 a = habitat_.room(habitat::RoomId::kKitchen).bounds.clamp({12.2, 9.0}, 0.05);
  const Vec2 b = habitat_.room(habitat::RoomId::kBiolab).bounds.clamp({11.8, 9.0}, 0.05);
  // 0.4 m apart but separated by a wall.
  EXPECT_FALSE(ir_.geometry_ok(a, M_PI, b, 0.0));
}

TEST_F(IrTest, DetectionProbabilityApplies) {
  Rng rng(7);
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.0, 0.0};
  int hits = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) hits += ir_.try_contact(a, 0.0, b, M_PI, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, ir_.params().detect_probability, 0.03);
}

}  // namespace
}  // namespace hs::radio
