// Columnar record-batch coverage: arena allocation, day-run splitting,
// the exact SIMD predicate kernels, the column DSP entry points against
// per-frame scalar oracles, and the whole pipeline against a per-record
// (row-wise) attribution oracle on the edge cases the mission simulator
// never produces on its own — an empty badge-day, a single-record day,
// records straddling midnight, a badge swap and reuse, same-timestamp
// observations, NaN features and a recordless badge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "beacon/beacon.hpp"
#include "core/analysis.hpp"
#include "core/record_batch.hpp"
#include "dsp/speech.hpp"
#include "dsp/walking.hpp"
#include "habitat/habitat.hpp"
#include "locate/room_classifier.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace hs::core {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// --- ColumnArena -----------------------------------------------------------

TEST(ColumnArena, AlignsEveryAllocation) {
  ColumnArena arena(256);
  for (int i = 0; i < 20; ++i) {
    const auto* p = arena.alloc<float>(static_cast<std::size_t>(i * 3 + 1));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ColumnArena::kAlignment, 0u);
  }
}

TEST(ColumnArena, EmptyAllocationIsNonNull) {
  ColumnArena arena;
  EXPECT_NE(arena.alloc<double>(0), nullptr);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ColumnArena, AccountsUsedAndReservedAcrossSlabGrowth) {
  ColumnArena arena(/*initial_bytes=*/128);
  // Each alloc rounds up to the 64-byte alignment quantum.
  (void)arena.alloc<double>(8);  // 64 bytes
  EXPECT_EQ(arena.bytes_used(), 64u);
  (void)arena.alloc<float>(100);  // 448 bytes -> forces a larger slab
  EXPECT_EQ(arena.bytes_used(), 64u + 448u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  // Old slabs stay alive: the first pointer must still be dereferenceable,
  // which ASan would catch if the slab were freed on growth.
  const auto* p = arena.alloc<std::int8_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ColumnArena::kAlignment, 0u);
}

// --- day_runs --------------------------------------------------------------

TEST(DayRuns, EmptyColumn) { EXPECT_TRUE(day_runs(nullptr, 0).empty()); }

TEST(DayRuns, SingleRecord) {
  const double t = to_seconds(day_start(3) + hours(5));
  const auto runs = day_runs(&t, 1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (DayRun{3, 0, 1}));
}

TEST(DayRuns, SplitsExactlyAtMidnight) {
  // Two records just before midnight of day 2, one exactly on the
  // boundary (belongs to day 3), one after.
  const std::vector<double> t = {
      to_seconds(day_start(3) - seconds(2)),
      to_seconds(day_start(3)) - 1e-7,  // sub-microsecond before midnight
      to_seconds(day_start(3)),         // first instant of day 3
      to_seconds(day_start(3) + seconds(1)),
  };
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (DayRun{2, 0, 2}));
  EXPECT_EQ(runs[1], (DayRun{3, 2, 4}));
  // Boundary classification must equal the per-record expression.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int expected = mission_day(static_cast<SimTime>(t[i] * 1e6));
    const auto& run = i < 2 ? runs[0] : runs[1];
    EXPECT_EQ(run.day, expected) << "record " << i;
  }
}

TEST(DayRuns, NegativeTimestampsUseTruncatingFallback) {
  // A badly-fit clock can rectify to before mission start; the truncating
  // cast maps [-kDay, 0) to day 1 and [0, kDay) also to day 1.
  const std::vector<double> t = {-5.0, -1.0, 1.0};
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (DayRun{1, 0, 3}));
}

TEST(DayRuns, UnsortedInputYieldsExtraRunsNeverWrongDays) {
  const std::vector<double> t = {
      to_seconds(day_start(2) + hours(1)),
      to_seconds(day_start(4) + hours(1)),  // forward jump
      to_seconds(day_start(2) + hours(2)),  // backward jump
  };
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (DayRun{2, 0, 1}));
  EXPECT_EQ(runs[1], (DayRun{4, 1, 2}));
  EXPECT_EQ(runs[2], (DayRun{2, 2, 3}));
}

// --- SIMD kernels ----------------------------------------------------------

std::size_t scalar_count_band_ge(const std::vector<float>& x, const std::vector<float>& y,
                                 double xlo, double xhi, double ymin) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (static_cast<double>(x[i]) >= xlo && static_cast<double>(x[i]) <= xhi &&
        static_cast<double>(y[i]) >= ymin) {
      ++count;
    }
  }
  return count;
}

TEST(SimdKernels, CountBandGeMatchesScalarOnEdgeValues) {
  // Threshold 0.9 is not exactly representable: 0.9f and the double 0.9
  // round differently, so a kernel comparing in float would misclassify
  // 0.9f. The edge set pins the widen-before-compare rule.
  std::vector<float> x = {0.9F, 0.89999997F, 3.2F, 3.2000002F, kNaN, kInf, -kInf, 0.0F, 1.5F};
  std::vector<float> y = {1.2F, 5.0F, 1.2F, 1.2F, 1.2F, 1.2F, 1.2F, kNaN, 1.19999998F};
  // Pad through several vector widths to exercise both lanes and tail.
  while (x.size() < 23) {
    x.push_back(x[x.size() % 9]);
    y.push_back(y[y.size() % 9]);
  }
  for (std::size_t n = 0; n <= x.size(); ++n) {
    const std::vector<float> xs(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n));
    const std::vector<float> ys(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(util::simd::count_band_ge(xs.data(), ys.data(), n, 0.9, 3.2, 1.2),
              scalar_count_band_ge(xs, ys, 0.9, 3.2, 1.2))
        << "n=" << n;
  }
}

TEST(SimdKernels, CountBandGeMatchesScalarOnRandomData) {
  Rng rng(7);
  std::vector<float> x;
  std::vector<float> y;
  for (int i = 0; i < 1000; ++i) {
    x.push_back(rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 4.0)));
    y.push_back(rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 3.0)));
  }
  EXPECT_EQ(util::simd::count_band_ge(x.data(), y.data(), x.size(), 0.9, 3.2, 1.2),
            scalar_count_band_ge(x, y, 0.9, 3.2, 1.2));
}

TEST(SimdKernels, MaskGe2MatchesScalar) {
  std::vector<float> a = {60.0F, 59.999996F, 60.000004F, kNaN, kInf, -kInf, 0.0F};
  std::vector<float> b = {0.25F, 0.25F, 0.24999999F, 0.25F, kNaN, 0.25F, 1.0F};
  Rng rng(42);
  while (a.size() < 100) {
    a.push_back(static_cast<float>(rng.uniform(40.0, 80.0)));
    b.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
  }
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, a.size()}) {
    std::vector<std::uint8_t> out(n + 1, 0xAB);
    util::simd::mask_ge2(a.data(), b.data(), n, 60.0, 0.25, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t want =
          (static_cast<double>(a[i]) >= 60.0 && static_cast<double>(b[i]) >= 0.25) ? 1 : 0;
      EXPECT_EQ(out[i], want) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(out[n], 0xAB) << "kernel wrote past n=" << n;
  }
}

// --- column DSP entry points --------------------------------------------

TEST(ColumnarDsp, WalkingCountMatchesRowWise) {
  Rng rng(11);
  std::vector<io::MotionFrame> frames;
  std::vector<float> step;
  std::vector<float> var;
  for (int i = 0; i < 777; ++i) {
    io::MotionFrame f;
    f.step_freq_hz = rng.bernoulli(0.1) ? kNaN : static_cast<float>(rng.uniform(0.0, 4.0));
    f.accel_var = rng.bernoulli(0.1) ? kNaN : static_cast<float>(rng.uniform(0.0, 3.0));
    frames.push_back(f);
    step.push_back(f.step_freq_hz);
    var.push_back(f.accel_var);
  }
  const dsp::WalkingDetector d;
  std::size_t per_frame = 0;
  for (const auto& f : frames) per_frame += d.is_walking(f) ? 1 : 0;
  ASSERT_GT(per_frame, 0u);
  EXPECT_EQ(d.count_walking(step.data(), var.data(), step.size()), per_frame);
  EXPECT_EQ(d.count_walking(step.data(), var.data(), step.size()), d.count_walking(frames));
  EXPECT_EQ(d.count_walking(step.data(), var.data(), 0), 0u);
  EXPECT_EQ(d.count_walking(step.data(), var.data(), 1),
            d.is_walking(frames[0]) ? 1u : 0u);
}

/// Feature columns for SpeechDetector::analyze.
struct AudioCols {
  std::vector<double> t;
  std::vector<float> level;
  std::vector<float> voiced;
  std::vector<float> f0;

  void add(double t_s, float level_db, float voiced_fraction, float f0_hz) {
    t.push_back(t_s);
    level.push_back(level_db);
    voiced.push_back(voiced_fraction);
    f0.push_back(f0_hz);
  }
  [[nodiscard]] std::vector<dsp::SpeechInterval> analyze(const dsp::SpeechDetector& d,
                                                         double t0_s) const {
    return d.analyze(t.data(), level.data(), voiced.data(), f0.data(), t.size(), t0_s);
  }
};

TEST(ColumnarDsp, SpeechAnalyzeMatchesRowWise) {
  // Random frames with NaN features against a per-frame (row-wise)
  // oracle: the scalar voiced rule on each frame, frames grouped by their
  // 15 s slot, counts, level sums and f0 votes per slot.
  Rng rng(13);
  AudioCols cols;
  for (int i = 0; i < 600; ++i) {
    cols.add(1000.0 + i + rng.uniform(0.0, 0.4),
             rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(40.0, 80.0)),
             rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 1.0)),
             rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(90.0, 260.0)) : 0.0F);
  }
  const dsp::SpeechDetector d;
  const auto& p = d.params();
  struct Slot {
    std::uint32_t total = 0;
    std::uint32_t voiced = 0;
    double db_sum = 0.0;
    std::map<int, int> f0_votes;
  };
  std::map<std::int64_t, Slot> slots;
  for (std::size_t i = 0; i < cols.t.size(); ++i) {
    Slot& slot = slots[static_cast<std::int64_t>(std::floor(cols.t[i] / p.interval_s))];
    ++slot.total;
    if (cols.voiced[i] >= p.min_voiced_fraction && cols.level[i] >= p.min_level_db) {
      ++slot.voiced;
      slot.db_sum += cols.level[i];
      if (cols.f0[i] > 0.0F) {
        ++slot.f0_votes[static_cast<int>(std::lround(cols.f0[i] / 10.0F)) * 10];
      }
    }
  }
  const auto got = cols.analyze(d, 0.0);
  ASSERT_EQ(got.size(), slots.size());
  std::size_t k = 0;
  std::size_t speech = 0;
  for (const auto& [index, slot] : slots) {
    const dsp::SpeechInterval& iv = got[k++];
    EXPECT_EQ(iv.start_s, static_cast<double>(index) * p.interval_s) << index;
    EXPECT_EQ(iv.total_frames, slot.total) << index;
    EXPECT_EQ(iv.voiced_frames, slot.voiced) << index;
    EXPECT_EQ(iv.speech, slot.voiced > 0 && slot.voiced / p.interval_s >= p.min_coverage) << index;
    EXPECT_EQ(iv.mean_voiced_db, slot.voiced > 0 ? slot.db_sum / slot.voiced : 0.0) << index;
    int best_f0 = 0;
    int best_votes = 0;
    for (const auto& [f0, votes] : slot.f0_votes) {
      if (votes > best_votes) {
        best_votes = votes;
        best_f0 = f0;
      }
    }
    EXPECT_EQ(iv.dominant_f0_hz, static_cast<double>(best_f0)) << index;
    speech += iv.speech ? 1 : 0;
  }
  EXPECT_GT(speech, 0u);
  EXPECT_LT(speech, got.size());
  EXPECT_TRUE(d.analyze(cols.t.data(), cols.level.data(), cols.voiced.data(), cols.f0.data(), 0,
                        0.0)
                  .empty());

  // Hand-computed intervals. Slot [0, 15): four voiced frames, one on
  // both thresholds exactly, three that miss the rule (NaN level, NaN
  // fraction, 59.9 dB).
  AudioCols hand;
  hand.add(0.0, 65.0F, 0.7F, 120.0F);
  hand.add(1.0, 65.0F, 0.7F, 120.0F);
  hand.add(2.0, 60.0F, 0.25F, 120.0F);
  hand.add(3.0, 70.0F, 0.9F, 210.0F);
  hand.add(4.0, kNaN, 0.9F, 210.0F);
  hand.add(5.0, 80.0F, kNaN, 210.0F);
  hand.add(6.0, 59.9F, 0.9F, 210.0F);
  for (int t = 7; t < 15; ++t) hand.add(t, 30.0F, 0.0F, 0.0F);
  // Slot [15, 30): five frames, two voiced without f0 — below coverage.
  for (int t = 15; t < 20; ++t) hand.add(t, t < 17 ? 66.0F : 30.0F, t < 17 ? 0.5F : 0.0F, 0.0F);
  // Slot [45, 60) after a gap: one voiced frame.
  hand.add(50.5, 61.0F, 1.0F, 160.0F);

  dsp::SpeechInterval a;
  a.start_s = 0.0;
  a.speech = true;           // 4 / 15 >= 20 %
  a.mean_voiced_db = 65.0;   // (65 + 65 + 60 + 70) / 4
  a.dominant_f0_hz = 120.0;  // three votes against one
  a.voiced_frames = 4;
  a.total_frames = 15;
  dsp::SpeechInterval b;
  b.start_s = 15.0;
  b.mean_voiced_db = 66.0;
  b.voiced_frames = 2;
  b.total_frames = 5;
  dsp::SpeechInterval c;
  c.start_s = 45.0;
  c.mean_voiced_db = 61.0;
  c.dominant_f0_hz = 160.0;
  c.voiced_frames = 1;
  c.total_frames = 1;
  EXPECT_EQ(hand.analyze(d, 0.0), (std::vector<dsp::SpeechInterval>{a, b, c}));
}

TEST(ColumnarDsp, RoomClassifyMatchesHandComputedStays) {
  const auto hab = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(hab);
  const locate::RoomClassifier classifier(beacons);
  io::BeaconId kitchen = 0;
  io::BeaconId office = 0;
  for (const auto& b : beacons) {
    if (b.room == habitat::RoomId::kKitchen) kitchen = b.id;
    if (b.room == habitat::RoomId::kOffice) office = b.id;
  }
  const io::BeaconId unknown = 200;  // past the survey
  const std::vector<double> t = {0.0, 0.3, 1.0, 2.0, 2.5, 3.0, 5.0, 20.0};
  const std::vector<io::BeaconId> id = {kitchen, office, kitchen, office,
                                        kitchen, unknown, office, office};
  const std::vector<std::int8_t> rssi = {-50, -60, -55, -50, -50, -40, -50, -50};
  // Bin [0,1): the louder kitchen beacon wins. [1,2): kitchen again,
  // extending the stay. [2,3): office and kitchen tie at -50 dBm, the
  // first heard wins. [3,4): only an unknown beacon — no fix. [5,6):
  // office, 2 s after the last fix, within the 5 s carry, so it extends.
  // [20,21): 14 s of silence is too long; a new stay opens and the old
  // one is not stretched over the gap.
  const std::vector<locate::RoomStay> want = {
      {habitat::RoomId::kKitchen, 0.0, 2.0},
      {habitat::RoomId::kOffice, 2.0, 6.0},
      {habitat::RoomId::kOffice, 20.0, 21.0},
  };
  EXPECT_EQ(classifier.classify(t.data(), id.data(), rssi.data(), t.size()), want);
  EXPECT_TRUE(classifier.classify(t.data(), id.data(), rssi.data(), 0).empty());
}

// --- RecordBatch::build ----------------------------------------------------

TEST(RecordBatchBuild, EmptyCardYieldsEmptyColumns) {
  badge::SdCard card;
  ColumnArena arena;
  const timesync::ClockFit fit;
  const auto batch = RecordBatch::build(3, card, fit, {}, arena);
  EXPECT_EQ(batch.badge, 3);
  EXPECT_EQ(batch.total_records(), 0u);
  EXPECT_TRUE(batch.obs.days.empty());
  EXPECT_TRUE(batch.audio.days.empty());
  EXPECT_TRUE(batch.motion.days.empty());
}

TEST(RecordBatchBuild, AppliesRectifyAndWornFilterExactly) {
  badge::SdCard card;
  // Local stamps in ms; the fit shifts by +500 ms and stretches by 1.001.
  timesync::ClockFit fit;
  fit.offset_ms = 500.0;
  fit.rate = 1.001;
  for (std::uint32_t k = 0; k < 50; ++k) {
    io::MotionFrame m;
    m.t = 1000 * k;
    m.accel_var = static_cast<float>(k);
    m.step_freq_hz = 1.5F;
    card.log(m);
  }
  // Worn only for rectified seconds [10, 20) and [30, 35).
  const std::vector<std::pair<double, double>> worn = {{10.0, 20.0}, {30.0, 35.0}};
  ColumnArena arena;
  const auto batch = RecordBatch::build(0, card, fit, worn, arena);
  // Reference: the per-record expression over the same records.
  std::vector<double> want_t;
  std::vector<float> want_var;
  IntervalCursor cursor(worn);
  for (const auto& m : card.motion()) {
    const double t = fit.rectify(m.t) / 1000.0;
    if (!cursor.contains(t)) continue;
    want_t.push_back(t);
    want_var.push_back(m.accel_var);
  }
  ASSERT_EQ(batch.motion.size, want_t.size());
  ASSERT_GT(batch.motion.size, 0u);
  for (std::size_t i = 0; i < batch.motion.size; ++i) {
    EXPECT_EQ(batch.motion.t_s[i], want_t[i]) << i;  // bit-identical, not approx
    EXPECT_EQ(batch.motion.accel_var[i], want_var[i]) << i;
  }
  EXPECT_EQ(batch.obs.size, 0u);
  EXPECT_EQ(batch.audio.size, 0u);
}

TEST(RecordBatchBuild, DayRunsCoverStraddlingStreams) {
  badge::SdCard card;
  const timesync::ClockFit fit;  // identity
  // Audio frames every hour from day 2 20:00 through day 3 04:00 —
  // straddles midnight.
  const SimTime start = day_start(2) + hours(20);
  for (int k = 0; k < 9; ++k) {
    io::AudioFrame a;
    a.t = static_cast<io::LocalMs>((start + hours(k)) / kMillisecond);
    a.level_db = 65.0F;
    a.voiced_fraction = 0.5F;
    card.log(a);
  }
  const std::vector<std::pair<double, double>> worn = {{0.0, 1e12}};
  ColumnArena arena;
  const auto batch = RecordBatch::build(0, card, fit, worn, arena);
  ASSERT_EQ(batch.audio.size, 9u);
  ASSERT_EQ(batch.audio.days.size(), 2u);
  EXPECT_EQ(batch.audio.days[0], (DayRun{2, 0, 4}));
  EXPECT_EQ(batch.audio.days[1], (DayRun{3, 4, 9}));
}

// --- pipeline vs a per-record attribution oracle on edge-case datasets ------

/// Hand-built dataset exercising what the simulator never emits: badge 0
/// has a day with zero records between two populated days, badge 1 has a
/// single-record day, badge 2's worn window straddles midnight, badge 3
/// carries NaN features, badge 4 has one dense day (>600 motion frames,
/// so Fig. 4 computes a value) with two equally loud beacons heard at
/// every scan, badge 5 logs nothing at all. On day 4 badges 0 and 1 swap
/// wearers and badge 2 passes to astronaut 5 (the paper's day-9 swap and
/// F's reuse of C's badge), so midnight splits badge 2's window between
/// two astronauts and astronaut 1's records arrive out of order. Days
/// 2..4 keep it fast.
Dataset make_edge_dataset() {
  Dataset data;
  data.habitat = habitat::Habitat::lunares();
  data.beacons = beacon::deploy_lunares_beacons(data.habitat);
  data.script = crew::MissionScript{};
  data.script.mission_days = 4;

  const auto worn_window = [](core::BadgeLog& log, int day, int on_h, int off_h) {
    const auto on = static_cast<io::LocalMs>((day_start(day) + hours(on_h)) / kMillisecond);
    const auto off = static_cast<io::LocalMs>((day_start(day) + hours(off_h)) / kMillisecond);
    log.card.log(io::WearEvent{on, log.id, io::WearState::kWorn});
    return std::pair{on, off};
  };
  const auto close_window = [](core::BadgeLog& log, io::LocalMs off) {
    log.card.log(io::WearEvent{off, log.id, io::WearState::kOff});
  };
  const auto motion_at = [](core::BadgeLog& log, io::LocalMs t, float var, float step) {
    io::MotionFrame m;
    m.t = t;
    m.badge = log.id;
    m.accel_var = var;
    m.step_freq_hz = step;
    log.card.log(m);
  };
  const auto audio_at = [](core::BadgeLog& log, io::LocalMs t, float db, float vf, float f0) {
    io::AudioFrame a;
    a.t = t;
    a.badge = log.id;
    a.level_db = db;
    a.voiced_fraction = vf;
    a.dominant_f0_hz = f0;
    log.card.log(a);
  };
  const auto obs_at = [&data](core::BadgeLog& log, io::LocalMs t, std::size_t beacon) {
    io::BeaconObs o;
    o.t = t;
    o.badge = log.id;
    o.beacon = data.beacons[beacon % data.beacons.size()].id;
    o.rssi_dbm = -45;
    log.card.log(o);
  };

  const auto wearer = [](std::size_t b, int day) -> std::size_t {
    if (day == 4 && b <= 1) return 1 - b;  // swap
    if (day == 4 && b == 2) return 5;      // reuse
    return b;
  };

  Rng rng(99);
  for (std::size_t b = 0; b < crew::kCrewSize; ++b) {
    core::BadgeLog log;
    log.id = static_cast<io::BadgeId>(b);
    for (int day = 2; day <= 4; ++day) {
      data.ownership.assign(log.id, day, wearer(b, day));
      data.naive_ownership.assign(log.id, day, b);
    }
    switch (b) {
      case 0: {  // empty badge-day: records on days 2 and 4, none on 3
        for (int day : {2, 4}) {
          auto [on, off] = worn_window(log, day, 9, 18);
          for (int k = 0; k < 40; ++k) {
            const auto t = static_cast<io::LocalMs>(on + 60000U * static_cast<unsigned>(k));
            motion_at(log, t, static_cast<float>(rng.uniform(0.0, 3.0)), 1.5F);
            audio_at(log, t, 62.0F, 0.5F, 120.0F);
            obs_at(log, t, static_cast<std::size_t>(k % 5));
          }
          close_window(log, off);
        }
        break;
      }
      case 1: {  // single-record day
        auto [on, off] = worn_window(log, 3, 12, 13);
        motion_at(log, on + 1000U, 2.5F, 1.8F);
        close_window(log, off);
        break;
      }
      case 2: {  // worn window straddling midnight of day 3 -> 4
        const auto on = static_cast<io::LocalMs>((day_start(3) + hours(22)) / kMillisecond);
        const auto off = static_cast<io::LocalMs>((day_start(4) + hours(2)) / kMillisecond);
        log.card.log(io::WearEvent{on, log.id, io::WearState::kWorn});
        for (int k = 0; k < 240; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 60000U * static_cast<unsigned>(k));
          motion_at(log, t, 2.0F, rng.bernoulli(0.5) ? 1.6F : 0.0F);
          audio_at(log, t, static_cast<float>(rng.uniform(50.0, 75.0)),
                   static_cast<float>(rng.uniform(0.0, 1.0)), 200.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 7));
        }
        close_window(log, off);
        break;
      }
      case 3: {  // NaN features sprinkled through a normal day
        auto [on, off] = worn_window(log, 2, 8, 20);
        for (int k = 0; k < 300; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 30000U * static_cast<unsigned>(k));
          motion_at(log, t, rng.bernoulli(0.2) ? kNaN : 2.2F,
                    rng.bernoulli(0.2) ? kNaN : 1.7F);
          audio_at(log, t, rng.bernoulli(0.2) ? kNaN : 66.0F,
                   rng.bernoulli(0.2) ? kNaN : 0.6F, 110.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 3));
        }
        close_window(log, off);
        break;
      }
      case 4: {  // dense day: enough motion frames for Fig. 4 (>= 600)
        auto [on, off] = worn_window(log, 3, 8, 20);
        for (int k = 0; k < 800; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 20000U * static_cast<unsigned>(k));
          motion_at(log, t, static_cast<float>(rng.uniform(0.5, 3.0)),
                    rng.bernoulli(0.4) ? static_cast<float>(rng.uniform(0.9, 3.2)) : 0.0F);
          audio_at(log, t, static_cast<float>(rng.uniform(55.0, 70.0)),
                   static_cast<float>(rng.uniform(0.0, 1.0)), 130.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 9));
          obs_at(log, t, static_cast<std::size_t>(k % 9 + 13));  // same stamp, same RSSI
        }
        close_window(log, off);
        break;
      }
      default: break;  // astronaut 5: badge never produced a record
    }
    data.total_bytes += static_cast<std::int64_t>(log.card.record_count()) * 16;
    data.logs.push_back(std::move(log));
  }
  return data;
}

/// Records of one astronaut in row form, as the attribution oracle
/// emits them.
struct OracleRecords {
  struct Obs {
    double t_s;
    io::BeaconId beacon;
    std::int8_t rssi_dbm;
  };
  struct Audio {
    double t_s;
    float level_db;
    float voiced_fraction;
    float f0_hz;
  };
  struct Motion {
    double t_s;
    float accel_var;
    float step_freq_hz;
  };
  std::vector<Obs> obs;
  std::vector<Audio> audio;
  std::vector<Motion> motion;
};

/// Attribution oracle, one record at a time: build each badge's worn
/// intervals from its wear events, then in log and card order rectify
/// each record with the pipeline's clock fit, keep it if a worn interval
/// contains it, hand it to ownership.owner(badge, mission_day(t)), and
/// finally std::sort each astronaut's streams by time.
std::array<OracleRecords, crew::kCrewSize> attribute_oracle(const Dataset& data,
                                                            const AnalysisPipeline& pipeline) {
  std::array<OracleRecords, crew::kCrewSize> out;
  const double mission_end = static_cast<double>(day_start(data.last_day() + 1)) / 1e6;
  for (const auto& log : data.logs) {
    const timesync::ClockFit& fit = *pipeline.clock_fit(log.id);
    std::vector<std::pair<double, double>> worn;
    double since = -1.0;
    for (const auto& ev : log.card.wear()) {
      const double t = fit.rectify(ev.t) / 1000.0;
      if (ev.state == io::WearState::kWorn) {
        if (since < 0.0) since = t;
      } else if (since >= 0.0) {
        worn.emplace_back(since, t);
        since = -1.0;
      }
    }
    if (since >= 0.0) worn.emplace_back(since, mission_end);

    const auto owner_at = [&](double t) {
      return data.ownership.owner(log.id, mission_day(static_cast<SimTime>(t * 1e6)));
    };
    IntervalCursor obs_cursor(worn);
    for (const auto& r : log.card.beacon_obs()) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!obs_cursor.contains(t)) continue;
      if (const auto who = owner_at(t)) out[*who].obs.push_back({t, r.beacon, r.rssi_dbm});
    }
    IntervalCursor audio_cursor(worn);
    for (const auto& r : log.card.audio()) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!audio_cursor.contains(t)) continue;
      if (const auto who = owner_at(t)) {
        out[*who].audio.push_back({t, r.level_db, r.voiced_fraction, r.dominant_f0_hz});
      }
    }
    IntervalCursor motion_cursor(worn);
    for (const auto& r : log.card.motion()) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!motion_cursor.contains(t)) continue;
      if (const auto who = owner_at(t)) {
        out[*who].motion.push_back({t, r.accel_var, r.step_freq_hz});
      }
    }
  }
  const auto by_time = [](const auto& a, const auto& b) { return a.t_s < b.t_s; };
  for (auto& r : out) {
    std::sort(r.obs.begin(), r.obs.end(), by_time);
    std::sort(r.audio.begin(), r.audio.end(), by_time);
    std::sort(r.motion.begin(), r.motion.end(), by_time);
  }
  return out;
}

/// Check the pipeline's tracks, speech, Fig. 4 and Table I talking/walking
/// against the oracle's records fed through the classifier and detectors:
/// Fig. 4 per frame with the scalar is_walking and a per-frame mission day.
void expect_pipeline_matches_oracle(const Dataset& data, const AnalysisPipeline& pipeline) {
  const auto records = attribute_oracle(data, pipeline);
  const locate::RoomClassifier classifier(data.beacons);
  const dsp::SpeechDetector speech;
  const dsp::WalkingDetector walking;
  const int first = data.first_day();
  AnalysisPipeline::DailySeries fig4;
  fig4.first_day = first;
  fig4.values.assign(static_cast<std::size_t>(data.last_day() - first + 1), {});
  for (auto& row : fig4.values) row.fill(-1.0);
  std::array<double, crew::kCrewSize> talking{};
  std::array<double, crew::kCrewSize> walk{};

  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    const OracleRecords& r = records[i];
    std::vector<double> t;
    std::vector<io::BeaconId> beacon;
    std::vector<std::int8_t> rssi;
    for (const auto& o : r.obs) {
      t.push_back(o.t_s);
      beacon.push_back(o.beacon);
      rssi.push_back(o.rssi_dbm);
    }
    EXPECT_EQ(pipeline.track(i),
              classifier.classify(t.data(), beacon.data(), rssi.data(), t.size()))
        << "astronaut " << i;

    std::vector<double> at;
    std::vector<float> level;
    std::vector<float> voiced;
    std::vector<float> f0;
    for (const auto& a : r.audio) {
      at.push_back(a.t_s);
      level.push_back(a.level_db);
      voiced.push_back(a.voiced_fraction);
      f0.push_back(a.f0_hz);
    }
    const auto intervals =
        speech.analyze(at.data(), level.data(), voiced.data(), f0.data(), at.size(), 0.0);
    EXPECT_EQ(pipeline.speech_intervals(i), intervals) << "astronaut " << i;

    std::size_t walking_frames = 0;
    std::size_t day_walking = 0;
    std::size_t day_total = 0;
    int cur_day = -1;
    const auto flush = [&] {
      if (cur_day < first || day_total < 600) return;
      fig4.values[static_cast<std::size_t>(cur_day - first)][i] =
          static_cast<double>(day_walking) / static_cast<double>(day_total);
    };
    for (const auto& m : r.motion) {
      io::MotionFrame f;
      f.accel_var = m.accel_var;
      f.step_freq_hz = m.step_freq_hz;
      const bool is_walking = walking.is_walking(f);
      walking_frames += is_walking ? 1 : 0;
      const int day = mission_day(static_cast<SimTime>(m.t_s * 1e6));
      if (day != cur_day) {
        flush();
        cur_day = day;
        day_walking = 0;
        day_total = 0;
      }
      if (day > data.last_day()) continue;
      ++day_total;
      day_walking += is_walking ? 1 : 0;
    }
    flush();

    std::size_t speech_intervals = 0;
    for (const auto& iv : intervals) speech_intervals += iv.speech ? 1 : 0;
    talking[i] = intervals.empty() ? 0.0
                                   : static_cast<double>(speech_intervals) /
                                         static_cast<double>(intervals.size());
    walk[i] = r.motion.empty() ? 0.0
                               : static_cast<double>(walking_frames) /
                                     static_cast<double>(r.motion.size());
  }

  const auto got4 = pipeline.fig4_walking();
  EXPECT_EQ(got4.first_day, fig4.first_day);
  EXPECT_EQ(got4.values, fig4.values);

  // Table I scales talking and walking by the crew maximum.
  for (auto* xs : {&talking, &walk}) {
    const double top = *std::max_element(xs->begin(), xs->end());
    if (top > 0.0) {
      for (double& x : *xs) x /= top;
    }
  }
  const auto table = pipeline.table1();
  ASSERT_EQ(table.size(), crew::kCrewSize);
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    EXPECT_EQ(table[i].talking, talking[i]) << "astronaut " << i;
    EXPECT_EQ(table[i].walking, walk[i]) << "astronaut " << i;
  }
}

TEST(ColumnarPipeline, EdgeCaseDatasetMatchesRowWiseBitIdentically) {
  const Dataset data = make_edge_dataset();
  PipelineOptions opts;
  opts.threads = 1;
  const AnalysisPipeline pipeline(data, opts);
  expect_pipeline_matches_oracle(data, pipeline);
  // Sanity: the edge cases actually reach the outputs.
  const auto records = attribute_oracle(data, pipeline);
  EXPECT_FALSE(pipeline.track(0).empty());  // badge 0's day 2
  // Swap: astronaut 1 holds badge 1's day-3 record and badge 0's day-4
  // records; log order appends day 4 first, so the sort has work to do.
  ASSERT_FALSE(records[1].motion.empty());
  EXPECT_LT(records[1].motion.front().t_s, static_cast<double>(day_start(4)) / 1e6);
  EXPECT_GT(records[1].motion.back().t_s, static_cast<double>(day_start(4)) / 1e6);
  // Reuse: midnight splits badge 2's window between astronauts 2 and 5.
  ASSERT_FALSE(records[2].audio.empty());
  ASSERT_FALSE(records[5].audio.empty());
  EXPECT_LT(records[2].audio.back().t_s, static_cast<double>(day_start(4)) / 1e6);
  EXPECT_GE(records[5].audio.front().t_s, static_cast<double>(day_start(4)) / 1e6);
  EXPECT_FALSE(pipeline.track(5).empty());
  EXPECT_GE(pipeline.fig4_walking().values[1][4], 0.0);  // astronaut 4's dense day 3
}

TEST(ColumnarPipeline, ColumnarParallelMatchesRowWiseSerial) {
  const Dataset data = make_edge_dataset();
  PipelineOptions opts;
  opts.threads = 4;
  const AnalysisPipeline pipeline(data, opts);
  expect_pipeline_matches_oracle(data, pipeline);
}

}  // namespace
}  // namespace hs::core
