// Property tests for sna::detect_meetings against an independent
// brute-force oracle.
//
// The detector segments per-room runs of >= 2 co-present astronauts with
// grace bridging, then merges sub-grace separated runs. Both mechanisms
// reduce to one invariant: consecutive co-present seconds a < b (same
// room) belong to the same meeting iff b - a < grace + 1. The oracle
// implements *that* formulation directly — per-second co-presence from a
// linear track scan, clustered by the gap rule — so it shares no code or
// structure with the production raster; any disagreement flags a bug in
// one of the two (cf. the cross-validation argument in PAPERS.md's CTMC
// habitat-monitoring entry). Randomized room tracks sweep fractional stay
// boundaries, overlapping gaps, hangar visits, and empty tracks; the
// hand-written sna_test fixtures run through the same oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "habitat/room.hpp"
#include "sna/meetings.hpp"
#include "util/rng.hpp"

namespace hs::sna {
namespace {

using habitat::RoomId;
using locate::RoomStay;

/// Oracle room lookup: first stay covering `t` in a sorted,
/// non-overlapping track — deliberately a linear scan, not the
/// production binary search or cursor.
RoomId oracle_room_at(const std::vector<RoomStay>& track, double t) {
  for (const auto& s : track) {
    if (s.start_s <= t && t < s.end_s) return s.room;
  }
  return RoomId::kNone;
}

/// Brute-force meeting detection: per-second co-presence, clustered by
/// the gap < grace + 1 rule, then the duration/participant filters
/// applied verbatim from the Meeting contract.
std::vector<Meeting> oracle_meetings(const std::vector<std::vector<RoomStay>>& tracks,
                                     double t0_s, double t1_s, const MeetingParams& params) {
  const std::size_t n = tracks.size();
  const auto span = static_cast<std::size_t>(std::max(0.0, t1_s - t0_s));
  std::vector<Meeting> out;
  for (const auto room : habitat::all_rooms()) {
    if (room == RoomId::kHangar) continue;
    // Seconds (offsets from t0) where >= 2 astronauts share `room`.
    std::vector<std::size_t> co;
    for (std::size_t t = 0; t < span; ++t) {
      const double now = t0_s + static_cast<double>(t);
      std::size_t occ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (oracle_room_at(tracks[i], now) == room) ++occ;
      }
      if (occ >= 2) co.push_back(t);
    }
    // Cluster: consecutive co-seconds a < b stay together iff
    // b - a < grace + 1.
    std::size_t k = 0;
    while (k < co.size()) {
      const std::size_t begin = co[k];
      std::size_t last = co[k];
      ++k;
      while (k < co.size() && static_cast<double>(co[k] - last) < params.grace_s + 1.0) {
        last = co[k];
        ++k;
      }
      const std::size_t end = last + 1;
      const double duration = static_cast<double>(end - begin);
      if (duration < params.min_duration_s) continue;
      Meeting m;
      m.room = room;
      m.start_s = t0_s + static_cast<double>(begin);
      m.end_s = t0_s + static_cast<double>(end);
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t present = 0;
        for (std::size_t t = begin; t < end; ++t) {
          if (oracle_room_at(tracks[i], t0_s + static_cast<double>(t)) == room) ++present;
        }
        if (static_cast<double>(present) >= 0.3 * duration) m.participants.push_back(i);
      }
      if (m.participants.size() >= 2) out.push_back(std::move(m));
    }
  }
  // (start, room) is a unique key: one room hosts at most one meeting at
  // a given start. Sorting by it makes the comparison order total.
  std::sort(out.begin(), out.end(), [](const Meeting& a, const Meeting& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.room < b.room;
  });
  return out;
}

/// Random sorted non-overlapping track: alternating stays and gaps with
/// fractional boundaries, rooms drawn across the whole enum (including
/// the hangar, which the detector must ignore), occasionally empty.
std::vector<RoomStay> random_track(Rng& rng, double t0_s, double t1_s) {
  std::vector<RoomStay> track;
  if (rng.uniform() < 0.05) return track;  // badge never seen
  double t = t0_s + rng.uniform(0.0, 120.0);
  while (t < t1_s) {
    const double stay = rng.uniform(5.0, 400.0);
    const auto room = habitat::all_rooms()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(habitat::kRoomCount) - 1))];
    track.push_back(RoomStay{room, t, std::min(t + stay, t1_s)});
    t += stay;
    if (rng.uniform() < 0.4) t += rng.uniform(0.5, 200.0);  // off-badge gap
  }
  return track;
}

void sort_canonical(std::vector<Meeting>& meetings) {
  std::sort(meetings.begin(), meetings.end(), [](const Meeting& a, const Meeting& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.room < b.room;
  });
}

void expect_same_meetings(const std::vector<Meeting>& got, const std::vector<Meeting>& want,
                          const char* label, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << label << " seed=" << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].room, want[i].room) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].start_s, want[i].start_s) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].end_s, want[i].end_s) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].participants, want[i].participants)
        << label << " seed=" << seed << " meeting " << i;
  }
}

class MeetingsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeetingsProperty, MatchesOracle) {
  Rng rng(GetParam());
  // Mix of param regimes: the defaults and a tight grace/short-meeting
  // setting that makes bridging and merging fire often.
  const MeetingParams params = GetParam() % 2 == 0
                                   ? MeetingParams{}
                                   : MeetingParams{/*min_duration_s=*/30.0, /*grace_s=*/10.0};
  for (int trial = 0; trial < 8; ++trial) {
    const double t0 = rng.uniform(0.0, 1000.0);
    const double t1 = t0 + rng.uniform(600.0, 3600.0);
    const auto crew = static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<std::vector<RoomStay>> tracks;
    tracks.reserve(crew);
    for (std::size_t i = 0; i < crew; ++i) tracks.push_back(random_track(rng, t0, t1));

    const auto want = oracle_meetings(tracks, t0, t1, params);
    auto got = detect_meetings(tracks, t0, t1, params);

    // Invariants before canonicalization: output sorted by start,
    // participants sorted and unique, duration above the floor, bounds
    // inside the window.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].start_s, got[i].start_s);
    }
    for (const auto& m : got) {
      EXPECT_TRUE(std::is_sorted(m.participants.begin(), m.participants.end()));
      EXPECT_TRUE(std::adjacent_find(m.participants.begin(), m.participants.end()) ==
                  m.participants.end());
      EXPECT_GE(m.participants.size(), 2u);
      EXPECT_GE(m.duration_s(), params.min_duration_s);
      EXPECT_GE(m.start_s, t0);
      EXPECT_LE(m.end_s, t1);
      EXPECT_NE(m.room, RoomId::kHangar);
      EXPECT_NE(m.room, RoomId::kNone);
    }

    sort_canonical(got);
    expect_same_meetings(got, want, "detect_meetings vs oracle", GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetingsProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

TEST(MeetingsPropertyEdge, UnitFixturesMatchOracle) {
  // The hand-written sna_test fixtures: a pair that splits up, a pair
  // watched by a third in another room, a brief exit bridged by grace,
  // two rooms with a meeting each, and an empty crew.
  const std::vector<std::vector<std::vector<RoomStay>>> fixtures{
      {{{RoomId::kKitchen, 0.0, 120.0}},
       {{RoomId::kKitchen, 0.0, 60.0}, {RoomId::kOffice, 60.0, 120.0}}},
      {{{RoomId::kKitchen, 100.0, 400.0}},
       {{RoomId::kKitchen, 100.0, 400.0}},
       {{RoomId::kOffice, 0.0, 500.0}}},
      {{{RoomId::kKitchen, 0.0, 600.0}},
       {{RoomId::kKitchen, 0.0, 280.0}, {RoomId::kKitchen, 300.0, 600.0}}},
      {{{RoomId::kKitchen, 0.0, 300.0}},
       {{RoomId::kKitchen, 0.0, 300.0}},
       {{RoomId::kOffice, 0.0, 300.0}},
       {{RoomId::kOffice, 0.0, 300.0}}},
      {},
  };
  const MeetingParams params;
  std::size_t total = 0;
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    auto got = detect_meetings(fixtures[f], 0.0, 600.0, params);
    sort_canonical(got);
    expect_same_meetings(got, oracle_meetings(fixtures[f], 0.0, 600.0, params), "fixture", f);
    total += got.size();
  }
  // 60 s together is too short for the pair that splits up; the next two
  // fixtures hold one meeting each and the two-room fixture two.
  EXPECT_EQ(total, 4u);
}

TEST(MeetingsPropertyEdge, EmptyWindowAndEmptyCrew) {
  const std::vector<std::vector<RoomStay>> none;
  EXPECT_TRUE(detect_meetings(none, 0.0, 1000.0).empty());
  const std::vector<std::vector<RoomStay>> two(2);
  EXPECT_TRUE(detect_meetings(two, 500.0, 500.0).empty());
  EXPECT_TRUE(detect_meetings(two, 500.0, 100.0).empty());  // inverted window
}

}  // namespace
}  // namespace hs::sna
