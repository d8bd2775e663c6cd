// Unit tests for hs_util: Expected, Rng, statistics, units, strings, Vec2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "util/expected.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "util/vec2.hpp"

namespace hs {
namespace {

// ---------------------------------------------------------------- Expected

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(Error{"boom"});
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().message, "boom");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Expected, MutableAccess) {
  Expected<std::string> e(std::string("a"));
  e.value() += "b";
  EXPECT_EQ(*e, "ab");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s{Error{"bad"}};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message, "bad");
}

// --------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(21);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  std::vector<double> weights{1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 20000.0, 0.75, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBack) {
  Rng rng(29);
  std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights), 0u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(31);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDeterministic) {
  Rng base1(31);
  Rng base2(31);
  Rng a = base1.fork(5);
  Rng b = base2.fork(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ------------------------------------------------------------------- stats

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, PercentileEmpty) { EXPECT_EQ(percentile({}, 50.0), 0.0); }

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  std::vector<double> xs{1, 1, 1};
  std::vector<double> ys{2, 3, 4};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs{0, 1, 2, 3};
  std::vector<double> ys{1, 3, 5, 7};  // y = 1 + 2x
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
}

TEST(Stats, LinearFitDegenerate) {
  const auto fit = linear_fit({1.0}, {2.0});
  EXPECT_EQ(fit.slope, 0.0);
}

// ------------------------------------------------------------------- units

TEST(Units, Conversions) {
  EXPECT_EQ(seconds(static_cast<std::int64_t>(2)), 2'000'000);
  EXPECT_EQ(minutes(2), 120 * kSecond);
  EXPECT_DOUBLE_EQ(to_hours(hours(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMillisecond), 0.001);
}

TEST(Units, MissionDay) {
  EXPECT_EQ(mission_day(0), 1);
  EXPECT_EQ(mission_day(kDay - 1), 1);
  EXPECT_EQ(mission_day(kDay), 2);
  EXPECT_EQ(day_start(3), 2 * kDay);
}

TEST(Units, TimeOfDay) {
  const SimTime t = day_start(4) + hours(13) + minutes(30);
  EXPECT_EQ(hour_of_day(t), 13);
  EXPECT_EQ(minute_of_hour(t), 30);
}

TEST(Units, DataSizes) {
  EXPECT_DOUBLE_EQ(to_gib(kGiB), 1.0);
  EXPECT_DOUBLE_EQ(to_gib(512 * kMiB), 0.5);
}

// ----------------------------------------------------------------- strings

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(0.6312, 2), "0.63");
  EXPECT_EQ(format_fixed(-1.5, 0), "-2");  // banker's-free snprintf rounding
}

TEST(Strings, FormatClock) {
  EXPECT_EQ(format_clock(day_start(2) + hours(9) + minutes(5)), "09:05");
}

TEST(Strings, FormatMissionTime) {
  EXPECT_EQ(format_mission_time(day_start(4) + hours(15) + minutes(20)), "4d 15:20");
}

TEST(Strings, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(Strings, ParseNumberTakesOnlyWholeInRangeTokens) {
  int i = 7;
  EXPECT_TRUE(parse_number("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "7x", "x", " 1", "+1", "1.5", "2147483648"}) {
    EXPECT_FALSE(parse_number(bad, i)) << bad;
  }
  EXPECT_EQ(i, -42);  // untouched by the failures

  std::int64_t wide = 0;
  EXPECT_TRUE(parse_number("9223372036854775807", wide));
  EXPECT_FALSE(parse_number("9223372036854775808", wide));

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_number("-1", u));
  EXPECT_FALSE(parse_number("18446744073709551616", u));

  double d = 0.0;
  EXPECT_TRUE(parse_number("1e+06", d));
  EXPECT_EQ(d, 1e6);
  EXPECT_TRUE(parse_number("-0.25", d));
  EXPECT_EQ(d, -0.25);
  for (const char* bad : {"", "abc", "1.5x", "nan", "inf", "1e999", "0x10"}) {
    EXPECT_FALSE(parse_number(bad, d)) << bad;
  }
}

// -------------------------------------------------------------------- Vec2

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vec2{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_EQ((Vec2{0, 0}).normalized(), (Vec2{0, 0}));
  EXPECT_NEAR((Vec2{10, 0}).normalized().x, 1.0, 1e-12);
}

TEST(Vec2, Heading) {
  EXPECT_NEAR(heading({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(heading({0, 0}, {0, 1}), M_PI / 2, 1e-12);
}

TEST(Vec2, AngleBetweenWraps) {
  EXPECT_NEAR(angle_between(0.1, 2 * M_PI - 0.1), 0.2, 1e-9);
  EXPECT_NEAR(angle_between(0.0, M_PI), M_PI, 1e-12);
}

}  // namespace
}  // namespace hs
