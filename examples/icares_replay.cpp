// Full ICAres-1 replay: runs the complete 14-day mission, then reproduces
// every headline finding of the paper from the collected badge data and
// prints them as a mission report.
#include <cstdio>
#include <iostream>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "io/table.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hs;
  std::uint64_t seed = 42;
  if (argc > 1 && !parse_number(argv[1], seed)) {
    std::fprintf(stderr, "icares_replay: seed wants an unsigned integer, got '%s'\n", argv[1]);
    return 1;
  }

  std::printf("=== ICAres-1 mission replay (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  std::printf("Simulating 14 days, 6 astronauts, 27 beacons, 13 badges...\n");
  const core::Dataset data = core::run_icares_mission(seed);
  core::AnalysisPipeline pipeline(data);

  // --- dataset statistics (paper Section V, first paragraph) ---------------
  const auto stats = pipeline.dataset_stats();
  std::printf("\n-- Dataset --\n");
  std::printf("Total data collected:   %.1f GiB   (paper: ~150 GiB)\n", stats.total_gib);
  std::printf("Badge worn:             %.0f%% of daytime (paper: 63%%)\n",
              100.0 * stats.worn_of_daytime);
  std::printf("Badge active:           %.0f%% of daytime (paper: 84%%)\n",
              100.0 * stats.active_of_daytime);
  std::printf("Wear compliance decline: day2 %.0f%% -> day14 %.0f%% (paper: ~80%% -> ~50%%)\n",
              100.0 * stats.worn_by_day.front(), 100.0 * stats.worn_by_day.back());

  // --- Fig. 2 ---------------------------------------------------------------
  std::printf("\n-- Fig. 2: room-to-room passages (>=10 s dwell) --\n");
  const auto transitions = pipeline.fig2_transitions();
  io::TextTable table({"from\\to", "airlock", "bedroom", "biolab", "kitchen", "office",
                       "restroom", "storage", "workshop"});
  for (const auto from : habitat::fig2_rooms()) {
    std::vector<std::string> row{habitat::room_name(from)};
    for (const auto to : habitat::fig2_rooms()) {
      row.push_back(std::to_string(transitions.count(from, to)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("Busiest pair: office->kitchen %d, kitchen->office %d (paper: these dominate)\n",
              transitions.count(habitat::RoomId::kOffice, habitat::RoomId::kKitchen),
              transitions.count(habitat::RoomId::kKitchen, habitat::RoomId::kOffice));

  // --- dwell statistics -------------------------------------------------------
  const auto dwell = pipeline.dwell_stats();
  std::printf("\n-- Stays (time-weighted mean) -- biolab %.1f h, office %.1f h, workshop %.1f h "
              "(paper: ~2.5 h vs ~2x that)\n",
              dwell.typical_biolab_h, dwell.typical_office_h, dwell.typical_workshop_h);

  // --- Fig. 4 ---------------------------------------------------------------
  std::printf("\n-- Fig. 4: fraction of recorded time walking (days 2-8) --\n");
  const auto walking = pipeline.fig4_walking();
  io::TextTable walk_table({"day", "A", "B", "C", "D", "E", "F"});
  for (int day = 2; day <= 8; ++day) {
    std::vector<std::string> row{std::to_string(day)};
    const auto& vals = walking.values[static_cast<std::size_t>(day - walking.first_day)];
    for (double v : vals) row.push_back(v < 0 ? "-" : format_fixed(v, 3));
    walk_table.add_row(std::move(row));
  }
  walk_table.print(std::cout);

  // --- Fig. 6 ---------------------------------------------------------------
  std::printf("\n-- Fig. 6: fraction of 15 s intervals with detected speech --\n");
  const auto speech = pipeline.fig6_speech();
  io::TextTable speech_table({"day", "A", "B", "C", "D", "E", "F"});
  for (std::size_t d = 0; d < speech.values.size(); ++d) {
    std::vector<std::string> row{std::to_string(speech.first_day + static_cast<int>(d))};
    for (double v : speech.values[d]) row.push_back(v < 0 ? "-" : format_fixed(v, 3));
    speech_table.add_row(std::move(row));
  }
  speech_table.print(std::cout);

  // --- Fig. 5 day-4 narrative -------------------------------------------------
  std::printf("\n-- Day 4 (C's death): meetings detected --\n");
  for (const auto& m : pipeline.meetings_on(4)) {
    if (m.participants.size() < 3) continue;
    const auto dyn = pipeline.meeting_dynamics(m);
    std::string who;
    for (auto p : m.participants) who += crew::astronaut_letter(p);
    std::printf("  %s-%s  %-8s  crew=%s  speech=%.2f  loudness=%.1f dB\n",
                format_clock(static_cast<SimTime>(m.start_s * 1e6)).c_str(),
                format_clock(static_cast<SimTime>(m.end_s * 1e6)).c_str(),
                habitat::room_name(m.room), who.c_str(), dyn.speech_fraction,
                dyn.mean_loudness_db);
  }

  // --- pairwise -----------------------------------------------------------------
  const auto pairs = pipeline.pair_stats();
  std::printf("\n-- Pairwise -- A&F private %.1f h vs D&E %.1f h (paper: ~5 h more); "
              "A&F all meetings %.1f h vs D&E %.1f h (paper: ~10 h more)\n",
              pairs.af_private_h, pairs.de_private_h, pairs.af_meetings_h, pairs.de_meetings_h);

  // --- Table I ---------------------------------------------------------------
  std::printf("\n-- Table I: normalized crew parameters --\n");
  io::TextTable t1({"id", "company", "authority", "talking", "walking"});
  for (const auto& row : pipeline.table1()) {
    t1.add_row({std::string(1, row.id),
                row.has_social ? format_fixed(row.company, 2) : std::string("n/a"),
                row.has_social ? format_fixed(row.authority, 2) : std::string("n/a"),
                format_fixed(row.talking, 2), format_fixed(row.walking, 2)});
  }
  t1.print(std::cout);

  // --- survey cross-validation ------------------------------------------------
  const auto validation = pipeline.survey_validation();
  std::printf("\n-- Survey cross-validation -- %zu evening self-reports; wellbeing vs\n"
              "badge speech fraction: r = %.2f (sensors and self-reports agree);\n"
              "reported comfort slope: %.2f / day (the wear-compliance decline's\n"
              "subjective side)\n",
              validation.responses, validation.wellbeing_speech_corr,
              validation.comfort_slope_per_day);

  // --- voice census -------------------------------------------------------------
  const auto census = pipeline.voice_census();
  std::printf("\n-- Voice census (dominant f0 at each badge) -- ");
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    std::printf("%c:%s ", crew::astronaut_letter(i),
                census[i] == dsp::VoiceClass::kFemale
                    ? "F"
                    : (census[i] == dsp::VoiceClass::kMale ? "M" : "?"));
  }
  std::printf(" (paper: 3 women, 3 men)\n");

  return 0;
}
