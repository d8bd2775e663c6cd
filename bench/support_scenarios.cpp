// Section VI, reproduced from one mission: the mission support system
// running live against the simulated 14-day mission — anomaly alerts, the
// day-11 ration cut and the food forecast either side of it, the day-12
// delayed-command conflict — and then, on the system that run leaves
// behind, a consensus-gated system change (six crew votes, then mission
// control's) and the ability-routed deliveries of the day-12 alert.
// EXPERIMENTS.md's Section VI table is read off this output.
//
//   support_scenarios [seed=42]
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "support/system.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hs;
  const auto seed = bench::seed_from_args(argc, argv);
  std::printf("# Mission support system live run, seed %llu\n",
              static_cast<unsigned long long>(seed));

  core::MissionConfig config;
  config.seed = seed;
  core::MissionRunner runner(config);

  support::SupportSystem system;
  int last_day = 0;
  SimTime last_tick = 0;
  double food_before_cut = 0.0;
  double food_after_cut = 0.0;
  // The support system consumes live per-second features. Room and
  // speaking state come from the simulator's ground truth here, which the
  // paper's results justify treating as what the badges deliver: room
  // detection was "perfect" and speech detection is the calibrated 60 dB
  // rule (the offline pipeline demonstrates both).
  runner.add_observer([&](const core::MissionView& view) {
    last_tick = view.now;
    const int day = mission_day(view.now);
    if (day != last_day) {
      if (last_day >= 2) system.end_of_day(view.now);
      // The scripted ration cut: from day 11 the crew eats < 500 kcal.
      if (day == view.crew->script().food_shortage_day) {
        auto& resources = system.resources();
        food_before_cut = resources.days_remaining(support::Resource::kFoodKcal, crew::kCrewSize);
        resources.set_ration(support::Resource::kFoodKcal, 500.0 / 2500.0);
        food_after_cut = resources.days_remaining(support::Resource::kFoodKcal, crew::kCrewSize);
        system.conflicts().record_local_decision(view.now, "crew imposed 500 kcal rations");
      }
      last_day = day;
    }
    if (day < 2) return;
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      const auto& a = view.crew->astronaut(i);
      if (!a.aboard()) continue;
      support::CrewFeature f;
      f.t = view.now;
      f.astronaut = i;
      f.room = a.current_room();
      f.walking = a.walking();
      f.speech_detected = view.crew->conversations().conversation_active(f.room);
      system.ingest(f);
    }
    system.end_of_second(view.now);

    // Day-12 scripted incident: mission control's instruction, sent 20
    // minutes ago against stale habitat state, arrives mid-afternoon.
    if (day == 12 && time_of_day(view.now) == hours(14)) {
      system.uplink().send(view.now - minutes(20),
                           support::Command{1, "continue experiment plan P-7",
                                            system.conflicts().version() - 1, view.now});
    }
    if (day == 12) system.poll_uplink(view.now);
  });

  (void)runner.run();

  std::printf("\nAlerts raised during the mission:\n");
  std::size_t shown = 0;
  for (const auto& alert : system.alerts()) {
    if (shown++ > 40) {
      std::printf("  ... (%zu more)\n", system.alerts().size() - shown + 1);
      break;
    }
    std::printf("  %-9s %-20s %s\n", format_mission_time(alert.time).c_str(),
                support::alert_kind_name(alert.kind), alert.message.c_str());
  }

  std::printf("\nAlert counts:\n");
  for (auto kind : {support::AlertKind::kDehydrationRisk, support::AlertKind::kPassiveCrewMember,
                    support::AlertKind::kGroupTension, support::AlertKind::kUnplannedGathering,
                    support::AlertKind::kResourceShortage, support::AlertKind::kCommandConflict}) {
    std::printf("  %-22s %zu\n", support::alert_kind_name(kind), system.alert_count(kind));
  }

  std::printf("\nFood horizon at the day-11 ration cut (500 kcal/person/day):\n");
  std::printf("  before the cut: %.0f days\n", food_before_cut);
  std::printf("  after the cut:  %.0f days\n", food_after_cut);

  // A system change needs every teammate's and mission control's approval
  // (Section VI-C3); mission control's vote crosses the 20-minute link.
  const SimTime t0 = last_tick + kSecond;
  auto& changes = system.changes();
  const auto proposal = changes.propose(t0, "disable microphones in the bedroom");
  std::printf("\nConsensus approval: '%s'\n", changes.get(proposal)->description().c_str());
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    changes.vote(t0 + minutes(1 + static_cast<std::int64_t>(i)), proposal, i, true);
  }
  std::printf("  all six crew members approved; state: %s (mission control pending)\n",
              support::proposal_state_name(changes.get(proposal)->state()));
  changes.vote(t0 + minutes(45), proposal, support::kMissionControl, true);
  std::printf("  mission control approved (20 min light delay); state: %s\n",
              support::proposal_state_name(changes.get(proposal)->state()));

  // Ability-based design: the same alert reaches each crew member through
  // a modality they can use.
  const auto& alerts = system.alerts();
  const auto conflict = std::find_if(alerts.begin(), alerts.end(), [](const support::Alert& a) {
    return a.kind == support::AlertKind::kCommandConflict;
  });
  if (conflict != alerts.end()) {
    std::printf("\nAbility-routed deliveries of the %s %s alert:\n",
                format_mission_time(conflict->time).c_str(),
                support::alert_kind_name(conflict->kind));
    for (const auto& d : system.interface_adapter().broadcast(*conflict)) {
      std::printf("  %c <- %s\n", crew::astronaut_letter(d.astronaut), d.rendered.c_str());
    }
    std::printf("  (A is visually impaired: the adapter never routes visual signals to A.)\n");
  }

  std::printf("\nExpected scenario outcomes: an unplanned-gathering alert on day 4\n"
              "(the consolation meeting), dehydration warnings for office/workshop\n"
              "workers, a group-tension alert around days 11-12, and one\n"
              "command-conflict alert on day 12.\n");
  return 0;
}
