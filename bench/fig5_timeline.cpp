// Fig. 5: "Fraction of time with detected speech and location: timeline
// for all astronauts, for the day when C left the habitat" (day 4).
//
// Expected shape (paper): shortly after C passes away (~13:00), the crew
// gathers unplanned in the kitchen at ~15:20 and the conversation is
// clearly quieter than lunch at 12:30.
#include <iostream>

#include "bench_common.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hs;
  const int day =
      argc > 2 ? bench::parse_arg(argv, 2, "day", 1, crew::MissionScript{}.mission_days) : 4;
  const core::Dataset data = bench::run_mission(argc, argv);
  core::AnalysisPipeline pipeline(data);

  const auto timeline = pipeline.fig5_timeline(day, 10);

  std::printf("\nFig. 5 — day %d location + speech timeline (10-min bins, 08:00-22:00)\n", day);
  std::printf("Legend: letter = room (K kitchen, O office, W workshop, L bioLab, S storage,\n");
  std::printf("        R restroom, B bedroom, A atrium, X airlock, . no fix); UPPERCASE bold\n");
  std::printf("        = speech detected in >50%% of the bin's 15 s intervals.\n\n");

  auto room_char = [](habitat::RoomId room) {
    switch (room) {
      case habitat::RoomId::kKitchen:
        return 'k';
      case habitat::RoomId::kOffice:
        return 'o';
      case habitat::RoomId::kWorkshop:
        return 'w';
      case habitat::RoomId::kBiolab:
        return 'l';
      case habitat::RoomId::kStorage:
        return 's';
      case habitat::RoomId::kRestroom:
        return 'r';
      case habitat::RoomId::kBedroom:
        return 'b';
      case habitat::RoomId::kAtrium:
        return 'a';
      case habitat::RoomId::kAirlock:
        return 'x';
      default:
        return '.';
    }
  };

  // Header: hour marks.
  std::printf("     ");
  for (int h = 8; h < 22; ++h) std::printf("%-6d", h);
  std::printf("\n");
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    std::printf("  %c  ", crew::astronaut_letter(i));
    for (const auto& bin : timeline[i]) {
      char c = room_char(bin.room);
      if (bin.speech_fraction > 0.5 && c != '.') c = static_cast<char>(c - 'a' + 'A');
      std::printf("%c", c);
    }
    std::printf("\n");
  }

  // The two key gatherings, with loudness.
  std::printf("\nDetected gatherings on day %d (>= 3 badge-visible participants):\n", day);
  for (const auto& m : pipeline.meetings_on(day)) {
    if (m.participants.size() < 3) continue;
    const auto dyn = pipeline.meeting_dynamics(m);
    std::string who;
    for (auto p : m.participants) who += crew::astronaut_letter(p);
    std::printf("  %s-%s  %-8s crew=%-6s speech=%.2f  loudness=%.1f dB\n",
                format_clock(static_cast<SimTime>(m.start_s * 1e6)).c_str(),
                format_clock(static_cast<SimTime>(m.end_s * 1e6)).c_str(),
                habitat::room_name(m.room), who.c_str(), dyn.speech_fraction,
                dyn.mean_loudness_db);
  }
  std::printf("\nShape check: the ~15:20 kitchen gathering is unplanned and quieter than\n"
              "the 12:30 lunch (lower loudness despite similar speech coverage).\n");
  return 0;
}
