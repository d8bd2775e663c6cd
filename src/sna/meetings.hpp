// Meeting segmentation and dynamics (Fig. 5 and the pairwise findings:
// "A and F talked privately ~5 h more than D and E", the unplanned
// consolation gathering after C's death, planned lunches and briefings).
//
// A meeting is a maximal interval during which a stable group of >= 2
// astronauts shares one room. Short membership flickers (someone steps out
// for under a grace period) do not split a meeting. Speech enrichment then
// attaches loudness and talk shares from the badges' audio features.
//
// Both entry points work over spans of per-astronaut tracks/intervals
// (docs/PERFORMANCE.md, "Artifact layer"): detection fills a flat
// astronaut-major room raster whose per-room membership counts vectorize
// with the exact util::simd byte kernel, and speech enrichment groups
// 15 s slots with a stable sort. tests/meetings_property_test.cpp checks
// detection against a brute-force per-second oracle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/speech.hpp"
#include "habitat/room.hpp"
#include "locate/room_classifier.hpp"

namespace hs::sna {

/// Borrowed view of one astronaut's room track / speech intervals —
/// pair_stats hands out day shards without copying the vectors.
using TrackView = std::span<const locate::RoomStay>;
using SpeechView = std::span<const dsp::SpeechInterval>;

struct Meeting {
  habitat::RoomId room = habitat::RoomId::kNone;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::size_t> participants;  // crew indices, sorted

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
  [[nodiscard]] bool is_private() const { return participants.size() == 2; }
  [[nodiscard]] bool involves(std::size_t who) const;
};

struct MeetingParams {
  double min_duration_s = 120.0;  ///< shorter gatherings are passings-by
  double grace_s = 45.0;          ///< membership flicker shorter than this is bridged
};

/// Segment meetings from per-astronaut room tracks over [t0_s, t1_s).
/// Pure function of its inputs — pair_stats shards it per mission day.
[[nodiscard]] std::vector<Meeting> detect_meetings(std::span<const TrackView> tracks,
                                                   double t0_s, double t1_s,
                                                   MeetingParams params = {});

/// Convenience overload over owned tracks; forwards to the view fast path.
[[nodiscard]] std::vector<Meeting> detect_meetings(
    const std::vector<std::vector<locate::RoomStay>>& tracks, double t0_s, double t1_s,
    MeetingParams params = {});

/// Speech-derived meeting dynamics.
struct MeetingDynamics {
  double speech_fraction = 0.0;     ///< fraction of 15 s intervals with speech
  double mean_loudness_db = 0.0;    ///< mean voiced level across participants
  std::vector<double> talk_share;   ///< per participant, sums to ~1 when speech present
};

/// Enrich a meeting with audio features. `speech[i]` are astronaut i's
/// 15 s speech intervals (whole mission, time-sorted). Talk share uses the
/// loudest-badge-wins attribution: the interval's speaker is the
/// participant whose badge heard the highest voiced level.
[[nodiscard]] MeetingDynamics analyze_meeting(const Meeting& meeting,
                                              std::span<const SpeechView> speech);

/// Convenience overload over owned intervals; forwards to the view fast path.
[[nodiscard]] MeetingDynamics analyze_meeting(
    const Meeting& meeting, const std::vector<std::vector<dsp::SpeechInterval>>& speech);

/// Total pairwise meeting seconds (i and j attending the same meeting),
/// optionally restricted to private (two-person) meetings.
[[nodiscard]] double pair_meeting_seconds(const std::vector<Meeting>& meetings, std::size_t i,
                                          std::size_t j, bool private_only);

}  // namespace hs::sna
