#include "crew/schedule.hpp"

namespace hs::crew {

bool badge_prohibited(Activity a) {
  return a == Activity::kEva || a == Activity::kHygiene || a == Activity::kSleep;
}

DayPlan ScheduleGenerator::day_plan(const AstronautProfile& profile, int day, bool eva_today,
                                    Rng& rng) const {
  using habitat::RoomId;
  const auto& tt = timetable_;
  DayPlan plan;

  auto add = [&](SimDuration start, SimDuration end, Activity act, RoomId room) {
    if (end > start) plan.push_back(Slot{start, end, act, room});
  };

  // Work-room rotation: mornings in the primary room, afternoons in the
  // secondary, with an occasional day-level swap so stays differ between
  // days (and biolab blocks stay ~2.5 h while office/workshop blocks run
  // long, per the paper's dwell observations). The impaired astronaut
  // keeps a fixed routine; the commander does morning paperwork and then
  // embeds with a different team every afternoon ("cooperated, supervised,
  // and kept company with the crew").
  RoomId morning = profile.primary_room;
  RoomId afternoon = profile.secondary_room;
  if (profile.supervises) {
    // The workshop hosts the largest team, so the commander embeds there
    // most often.
    static constexpr RoomId kEmbedRotation[] = {RoomId::kWorkshop, RoomId::kBiolab,
                                                RoomId::kWorkshop};
    afternoon = kEmbedRotation[day % 3];
  } else if (profile.storage_errands && day % 2 == 0) {
    afternoon = RoomId::kStorage;
  } else if (!profile.impaired) {
    if ((day + static_cast<int>(profile.index)) % 3 == 0) std::swap(morning, afternoon);
    // Occasionally a storage errand block instead of the secondary room.
    if (rng.bernoulli(0.10)) afternoon = RoomId::kStorage;
  }

  add(0, tt.wake, Activity::kSleep, RoomId::kBedroom);
  add(tt.breakfast, tt.breakfast + minutes(30), Activity::kBreakfast, RoomId::kKitchen);
  // Morning work with the scheduled break. Biolab workers take the break;
  // office/workshop workers often skip it, absorbed in their work
  // (paper Sec. V: "people used to be absorbed in their office/workshop
  // work, forgot about breaks").
  const bool skips_breaks = (morning != RoomId::kBiolab) && rng.bernoulli(0.85);
  if (skips_breaks) {
    add(tt.breakfast + minutes(30), tt.lunch, Activity::kWork, morning);
  } else {
    add(tt.breakfast + minutes(30), tt.morning_break, Activity::kWork, morning);
    add(tt.morning_break, tt.morning_break + minutes(30), Activity::kBreak,
        rng.bernoulli(0.5) ? RoomId::kAtrium : RoomId::kKitchen);
    add(tt.morning_break + minutes(30), tt.lunch, Activity::kWork, morning);
  }
  add(tt.lunch, tt.lunch + minutes(30), Activity::kLunch, RoomId::kKitchen);

  if (eva_today) {
    // EVA window 13:00-17:00: prep, EVA on the regolith, post-procedures.
    add(tt.lunch + minutes(30), hours(13) + minutes(30), Activity::kEvaPrep, RoomId::kAirlock);
    add(hours(13) + minutes(30), hours(16), Activity::kEva, RoomId::kHangar);
    add(hours(16), hours(16) + minutes(30), Activity::kEvaPost, RoomId::kAirlock);
    add(hours(16) + minutes(30), tt.dinner, Activity::kWork, afternoon);
  } else {
    const bool skips_pm_break = (afternoon != RoomId::kBiolab) && rng.bernoulli(0.85);
    if (skips_pm_break) {
      add(tt.lunch + minutes(30), tt.dinner, Activity::kWork, afternoon);
    } else {
      add(tt.lunch + minutes(30), tt.afternoon_break, Activity::kWork, afternoon);
      add(tt.afternoon_break, tt.afternoon_break + minutes(30), Activity::kBreak,
          rng.bernoulli(0.5) ? RoomId::kAtrium : RoomId::kKitchen);
      add(tt.afternoon_break + minutes(30), tt.dinner, Activity::kWork, afternoon);
    }
  }
  add(tt.dinner, tt.dinner + minutes(30), Activity::kDinner, RoomId::kKitchen);
  // Evening block: most evenings are spent writing reports in the office
  // (a major source of the office<->kitchen passages Fig. 2 shows);
  // otherwise back in the day's room to wrap up.
  const bool reports_tonight =
      profile.primary_room == RoomId::kOffice || (day + static_cast<int>(profile.index)) % 2 == 0;
  add(tt.dinner + minutes(30), tt.briefing, Activity::kWork,
      reports_tonight ? RoomId::kOffice : morning);
  add(tt.briefing, tt.briefing + minutes(30), Activity::kBriefing, RoomId::kAtrium);
  add(tt.briefing + minutes(30), tt.bedtime, Activity::kHygiene, RoomId::kRestroom);
  add(tt.bedtime, kDay, Activity::kSleep, RoomId::kBedroom);
  return plan;
}

const Slot* slot_at(const DayPlan& plan, SimDuration time_of_day) {
  for (const auto& slot : plan) {
    if (time_of_day >= slot.start && time_of_day < slot.end) return &slot;
  }
  return nullptr;
}

}  // namespace hs::crew
