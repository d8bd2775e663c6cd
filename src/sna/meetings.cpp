#include "sna/meetings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace hs::sna {

bool Meeting::involves(std::size_t who) const {
  return std::find(participants.begin(), participants.end(), who) != participants.end();
}

namespace {

/// Runs of occ[t] >= 2 with sub-grace dips bridged, then sub-grace
/// separated runs merged, then the duration/participant filters. `raster`
/// is the astronaut-major room raster (n rows of `span` seconds).
void emit_room_meetings(const std::uint16_t* occ, const std::uint8_t* raster, std::size_t span,
                        std::size_t n, habitat::RoomId room, double t0_s,
                        const MeetingParams& params, std::vector<Meeting>& meetings) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  std::size_t t = 0;
  while (t < span) {
    if (occ[t] >= 2) {
      const std::size_t begin = t;
      std::size_t last_good = t;
      while (t < span) {
        if (occ[t] >= 2) {
          last_good = t;
          ++t;
        } else if (static_cast<double>(t - last_good) < params.grace_s) {
          ++t;  // bridge the dip
        } else {
          break;
        }
      }
      runs.emplace_back(begin, last_good + 1);
    } else {
      ++t;
    }
  }
  // Merge runs separated by less than grace.
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  for (const auto& r : runs) {
    if (!merged.empty() && static_cast<double>(r.first - merged.back().second) < params.grace_s) {
      merged.back().second = r.second;
    } else {
      merged.push_back(r);
    }
  }
  for (const auto& [begin, end] : merged) {
    const double duration = static_cast<double>(end - begin);
    if (duration < params.min_duration_s) continue;
    Meeting m;
    m.room = room;
    m.start_s = t0_s + static_cast<double>(begin);
    m.end_s = t0_s + static_cast<double>(end);
    // Participants: present for at least 30% of the meeting.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* row = raster + i * span;
      const auto present = std::count(row + begin, row + end, static_cast<std::uint8_t>(room));
      if (static_cast<double>(present) >= 0.3 * duration) m.participants.push_back(i);
    }
    if (m.participants.size() >= 2) meetings.push_back(std::move(m));
  }
}

}  // namespace

std::vector<Meeting> detect_meetings(std::span<const TrackView> tracks, double t0_s,
                                     double t1_s, MeetingParams params) {
  const std::size_t n = tracks.size();
  const auto span = static_cast<std::size_t>(std::max(0.0, t1_s - t0_s));  // whole seconds
  if (span == 0 || n == 0) return {};

  // Occupancy raster, astronaut-major: raster[i * span + t] = room of
  // astronaut i at second t0+t. Filling one contiguous track row at a
  // time keeps the cursor in registers and the writes sequential.
  std::vector<std::uint8_t> raster(n * span);
  for (std::size_t i = 0; i < n; ++i) {
    const TrackView track = tracks[i];
    std::uint8_t* row = raster.data() + i * span;
    std::size_t c = 0;
    for (std::size_t t = 0; t < span; ++t) {
      const double now = t0_s + static_cast<double>(t);
      while (c < track.size() && track[c].end_s <= now) ++c;
      row[t] = (c < track.size() && track[c].start_s <= now)
                   ? static_cast<std::uint8_t>(track[c].room)
                   : static_cast<std::uint8_t>(habitat::RoomId::kNone);
    }
  }

  std::vector<Meeting> meetings;
  std::vector<std::uint16_t> occ(span);
  for (const auto room : habitat::all_rooms()) {
    if (room == habitat::RoomId::kHangar) continue;  // no coverage there
    const auto rv = static_cast<std::uint8_t>(room);
    // Per-second occupant counts for this room, accumulated one astronaut
    // row at a time (integer adds — exact in any order).
    std::fill(occ.begin(), occ.end(), std::uint16_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* row = raster.data() + i * span;
      for (std::size_t t = 0; t < span; ++t) occ[t] += row[t] == rv ? 1 : 0;
    }
    emit_room_meetings(occ.data(), raster.data(), span, n, room, t0_s, params, meetings);
  }
  std::sort(meetings.begin(), meetings.end(),
            [](const Meeting& a, const Meeting& b) { return a.start_s < b.start_s; });
  return meetings;
}

std::vector<Meeting> detect_meetings(const std::vector<std::vector<locate::RoomStay>>& tracks,
                                     double t0_s, double t1_s, MeetingParams params) {
  std::vector<TrackView> views(tracks.begin(), tracks.end());
  return detect_meetings(std::span<const TrackView>(views), t0_s, t1_s, params);
}

namespace {

/// One participant-interval pair overlapping the meeting window.
struct SlotEntry {
  double start_s = 0.0;
  std::size_t pi = 0;
  const dsp::SpeechInterval* iv = nullptr;
};

/// Slot walk over entries grouped by interval start (ascending), pi
/// ascending within a group. Applies loudest-badge-wins attribution per
/// slot.
MeetingDynamics dynamics_from_slots(const std::vector<SlotEntry>& entries,
                                    std::size_t participant_count) {
  MeetingDynamics dyn;
  dyn.talk_share.assign(participant_count, 0.0);
  if (entries.empty()) return dyn;

  std::size_t slot_count = 0;
  std::size_t speech_slots = 0;
  std::size_t attributed = 0;
  double loud_sum = 0.0;
  std::size_t k = 0;
  while (k < entries.size()) {
    // Interval starts sit on the shared 15 s grid, so double equality
    // groups slots exactly.
    const double start = entries[k].start_s;
    ++slot_count;
    bool any_speech = false;
    double best_db = -1.0;
    std::size_t best_pi = 0;
    for (; k < entries.size() && entries[k].start_s == start; ++k) {
      const auto* iv = entries[k].iv;
      if (!iv->speech) continue;
      any_speech = true;
      if (iv->mean_voiced_db > best_db) {
        best_db = iv->mean_voiced_db;
        best_pi = entries[k].pi;
      }
    }
    if (any_speech) {
      ++speech_slots;
      // Loudness: the per-slot maximum across badges — the badge nearest
      // the current speaker, i.e. how loud the conversation actually is
      // (a mean over distant badges would be dominated by propagation
      // loss, not speech level).
      loud_sum += best_db;
      dyn.talk_share[best_pi] += 1.0;
      ++attributed;
    }
  }
  dyn.speech_fraction = static_cast<double>(speech_slots) / static_cast<double>(slot_count);
  dyn.mean_loudness_db = speech_slots > 0 ? loud_sum / static_cast<double>(speech_slots) : 0.0;
  if (attributed > 0) {
    for (double& share : dyn.talk_share) share /= static_cast<double>(attributed);
  }
  return dyn;
}

}  // namespace

MeetingDynamics analyze_meeting(const Meeting& meeting, std::span<const SpeechView> speech) {
  // Collect each participant's 15 s intervals overlapping the meeting into
  // one flat vector (pi-major, time-sorted within), then a stable sort by
  // start groups the slots: equal starts keep insertion order, i.e. pi
  // ascending, so a tied loudest level goes to the lower participant.
  std::vector<SlotEntry> entries;
  for (std::size_t pi = 0; pi < meeting.participants.size(); ++pi) {
    const std::size_t who = meeting.participants[pi];
    if (who >= speech.size()) continue;
    for (const auto& iv : speech[who]) {
      if (iv.start_s + 15.0 <= meeting.start_s) continue;
      if (iv.start_s >= meeting.end_s) break;
      entries.push_back(SlotEntry{iv.start_s, pi, &iv});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const SlotEntry& a, const SlotEntry& b) { return a.start_s < b.start_s; });
  return dynamics_from_slots(entries, meeting.participants.size());
}

MeetingDynamics analyze_meeting(const Meeting& meeting,
                                const std::vector<std::vector<dsp::SpeechInterval>>& speech) {
  std::vector<SpeechView> views(speech.begin(), speech.end());
  return analyze_meeting(meeting, std::span<const SpeechView>(views));
}

double pair_meeting_seconds(const std::vector<Meeting>& meetings, std::size_t i, std::size_t j,
                            bool private_only) {
  double total = 0.0;
  for (const auto& m : meetings) {
    if (private_only && !m.is_private()) continue;
    if (m.involves(i) && m.involves(j)) total += m.duration_s();
  }
  return total;
}

}  // namespace hs::sna
