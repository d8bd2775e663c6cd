// Mission schedules: "All of the activities had been determined a priori
// and organized into a strict and precise plan, divided into 30 min slots.
// ... 14 h of daytime [8:00-22:00] ... only two 30 min-long breaks ...
// 1.5 h in total was spent on eating meals ... for the remaining 11.5 h the
// astronauts were supposed to work on their tasks."
#pragma once

#include <string>
#include <vector>

#include "habitat/room.hpp"
#include "crew/profile.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hs::crew {

enum class Activity {
  kSleep,
  kBreakfast,
  kLunch,
  kDinner,
  kBreak,
  kWork,       ///< focused task work in the slot's room
  kEvaPrep,    ///< suiting up in the airlock (~30 min, paper Sec. III-B)
  kEva,        ///< on the "Martian surface" (hangar); badge not worn
  kEvaPost,    ///< post-EVA procedures (~30 min)
  kBriefing,   ///< evening crew briefing
  kHygiene,    ///< restroom/gym; badge not worn
  kConsolation ///< scripted: unplanned gathering after C's death
};

/// True when mission rules forbid wearing the badge during this activity
/// (EVA in the outdoor suit, restrooms, physical exercise).
bool badge_prohibited(Activity a);

struct Slot {
  SimDuration start = 0;  ///< time of day
  SimDuration end = 0;
  Activity activity = Activity::kWork;
  habitat::RoomId room = habitat::RoomId::kAtrium;
};

/// One astronaut's plan for one day.
using DayPlan = std::vector<Slot>;

/// Deterministic meal/briefing times shared by the whole crew; the
/// analysis side may also use these as the "detailed schedule of the
/// mission" the paper cross-checks against.
struct MissionTimetable {
  SimDuration wake = hours(8);
  SimDuration breakfast = hours(8);            // 30 min
  SimDuration morning_break = hours(10) + minutes(30);
  SimDuration lunch = hours(12) + minutes(30); // 30 min (Fig. 5: lunch 12:30)
  SimDuration afternoon_break = hours(16);
  SimDuration dinner = hours(19);              // 30 min
  SimDuration briefing = hours(21);            // 30 min
  SimDuration bedtime = hours(22);
};

class ScheduleGenerator {
 public:
  explicit ScheduleGenerator(MissionTimetable timetable = {}) : timetable_(timetable) {}

  /// Build astronaut `profile`'s plan for `day` (1-based). `eva_today`
  /// marks astronauts with an afternoon EVA. Work-room choices vary by a
  /// per-day deterministic rotation plus `rng`.
  [[nodiscard]] DayPlan day_plan(const AstronautProfile& profile, int day, bool eva_today,
                                 Rng& rng) const;

  [[nodiscard]] const MissionTimetable& timetable() const { return timetable_; }

 private:
  MissionTimetable timetable_;
};

/// The slot active at a given time of day (nullptr outside the plan —
/// never happens for generated plans, which cover the full day).
const Slot* slot_at(const DayPlan& plan, SimDuration time_of_day);

}  // namespace hs::crew
