// Fig. 3: astronaut A's position heatmap over the whole mission, 28 cm x
// 28 cm cells, logarithmic intensity scale.
//
// Expected shape (paper): A keeps to the middle of rooms, avoids corners,
// and does not wander into places outside their tasks.
#include <iostream>

#include "bench_common.hpp"
#include "io/heatmap_render.hpp"

int main(int argc, char** argv) {
  using namespace hs;
  const std::size_t astronaut =
      argc > 2 ? bench::parse_arg<std::uint64_t>(argv, 2, "astronaut", 0, crew::kCrewSize - 1) : 0;
  const core::Dataset data = bench::run_mission(argc, argv);
  core::AnalysisPipeline pipeline(data);

  std::printf("\nFig. 3 — dwell-time heatmap of astronaut %c (28 cm cells, log scale):\n\n",
              crew::astronaut_letter(astronaut));
  const auto heat = pipeline.fig3_heatmap(astronaut);
  // Downsample 3x for terminal rendering (84 cm per glyph column pair).
  io::render_heatmap(std::cout, heat.grid_rows_downsampled(3));

  std::printf("\nTotal localized time: %.1f h\n", heat.total_seconds() / 3600.0);
  std::printf("Per-room dwell (h):\n");
  for (const auto room : habitat::all_rooms()) {
    const double h = heat.room_total(room) / 3600.0;
    if (h > 0.05) std::printf("  %-9s %7.1f\n", habitat::room_name(room), h);
  }
  return 0;
}
