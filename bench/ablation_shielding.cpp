// Ablation: the metal-wall RF shielding.
//
// The paper credits perfect room detection to "the metal walls of any room
// perfectly shielding the signal from the beacons in the other rooms".
// This harness re-runs a mission slice with wall attenuation reduced to a
// drywall-like 6 dB and shows how the strongest-beacon room classifier
// degrades: short phantom stays explode and the dwell filter can no longer
// save the transition counts.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hs;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  std::printf("# Shielding ablation, seed %llu (3 mission days per variant)\n",
              static_cast<unsigned long long>(seed));

  struct Variant {
    const char* name;
    double wall_db;
  };
  for (const Variant v : {Variant{"metal walls (paper, 38 dB)", 38.0},
                          Variant{"drywall (ablated,  6 dB)", 6.0}}) {
    core::MissionConfig config;
    config.seed = seed;
    config.ble_channel.wall_loss_db = v.wall_db;
    core::MissionRunner runner(config);
    const core::Dataset data = runner.run_days(4);
    core::AnalysisPipeline pipeline(data);

    // Phantom-stay census over the crew: stays shorter than 10 s are
    // almost always misclassification flicker.
    std::size_t stays = 0;
    std::size_t flicker = 0;
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      for (const auto& s : pipeline.track(i)) {
        ++stays;
        if (s.duration_s() < 10.0) ++flicker;
      }
    }
    const auto filtered = pipeline.fig2_transitions(10.0);
    const auto raw = pipeline.fig2_transitions(0.0);
    std::printf("\n%s\n", v.name);
    std::printf("  room stays:            %zu (%.0f%% shorter than 10 s)\n", stays,
                stays > 0 ? 100.0 * flicker / stays : 0.0);
    std::printf("  passages (raw):        %d\n", raw.total());
    std::printf("  passages (10 s filter): %d\n", filtered.total());
  }

  std::printf("\nExpected: with drywall, cross-room beacons become audible and the\n"
              "strongest-beacon classifier flickers far more (sub-10 s phantom stays\n"
              "roughly double; raw passage counts inflate ~20%%). The 10 s dwell filter\n"
              "absorbs most of the damage — which is exactly why the paper needs it —\n"
              "but the near-flicker-free tracks of the metal habitat are what make the\n"
              "fine-grained dwell and meeting analyses trustworthy.\n");
  return 0;
}
