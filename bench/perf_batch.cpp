// Microbenchmarks of the columnar substrate underneath the pipeline's
// batch path (docs/PERFORMANCE.md):
//
//   perf_batch [records=2000000] [reps=5]
//
//  - RecordBatch::build: SD-card streams -> arena-backed columns
//    (rectify + worn filter + day-run splitting), in records/sec.
//  - day_runs: the mission-day run splitter over a sorted column.
//  - util::simd kernels vs their scalar reference loops, in elements/sec:
//    count_band_ge (the walking predicate) and mask_ge2 (the voiced-frame
//    predicate). The kernels are exact, so the speedup here is free —
//    no accuracy trade was made for it.
//
// Unlike perf_pipeline this never runs a mission: inputs are synthetic
// and the numbers isolate the layers the columnar port added.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/record_batch.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace {

using namespace hs;
using bench::seconds_since;

/// Best-of-reps wall time for `fn`, with a volatile sink so the compiler
/// cannot drop the work.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  volatile std::size_t sink = 0;
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + fn();
    const double dt = seconds_since(t0);
    if (dt < best) best = dt;
  }
  (void)sink;
  return best;
}

badge::SdCard make_card(std::size_t records, Rng& rng) {
  badge::SdCard card;
  const std::size_t per_stream = records / 3;
  for (std::size_t k = 0; k < per_stream; ++k) {
    const auto t = static_cast<io::LocalMs>(1000 * k);
    io::MotionFrame m;
    m.t = t;
    m.accel_var = static_cast<float>(rng.uniform(0.0, 3.0));
    m.step_freq_hz = static_cast<float>(rng.uniform(0.0, 4.0));
    card.log(m);
    io::AudioFrame a;
    a.t = t;
    a.level_db = static_cast<float>(rng.uniform(40.0, 80.0));
    a.voiced_fraction = static_cast<float>(rng.uniform(0.0, 1.0));
    a.dominant_f0_hz = static_cast<float>(rng.uniform(0.0, 260.0));
    card.log(a);
    io::BeaconObs o;
    o.t = t;
    o.beacon = static_cast<io::BeaconId>(k % 27);
    o.rssi_dbm = static_cast<std::int8_t>(-40 - static_cast<int>(rng.uniform(0.0, 50.0)));
    card.log(o);
  }
  return card;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t records =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10)) : 2000000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;

  std::printf("# perf_batch: %zu records, best of %d, simd backend: %s\n", records, reps,
              util::simd::active_backend());

  Rng rng(42);
  const badge::SdCard card = make_card(records, rng);
  const timesync::ClockFit fit;  // identity
  const std::vector<std::pair<double, double>> worn = {{0.0, 1e12}};

  // RecordBatch::build — one fresh arena per rep, like one pipeline shard.
  const double build_s = best_of(reps, [&] {
    core::ColumnArena arena;
    const auto batch = core::RecordBatch::build(0, card, fit, worn, arena);
    return batch.total_records();
  });
  std::printf("%-24s %10.4f s  %14.0f records/s\n", "RecordBatch::build", build_s,
              static_cast<double>(card.record_count()) / build_s);

  // day_runs over a sorted multi-day column.
  std::vector<double> t_col(records);
  for (std::size_t i = 0; i < records; ++i) t_col[i] = static_cast<double>(i);
  const double runs_s = best_of(reps, [&] { return core::day_runs(t_col.data(), t_col.size()).size(); });
  std::printf("%-24s %10.4f s  %14.0f records/s\n", "day_runs", runs_s,
              static_cast<double>(records) / runs_s);

  // SIMD kernels vs their scalar reference loops.
  std::vector<float> x(records);
  std::vector<float> y(records);
  for (std::size_t i = 0; i < records; ++i) {
    x[i] = static_cast<float>(rng.uniform(0.0, 4.0));
    y[i] = static_cast<float>(rng.uniform(0.0, 3.0));
  }

  const double band_simd = best_of(
      reps, [&] { return util::simd::count_band_ge(x.data(), y.data(), records, 0.9, 3.2, 1.2); });
  const double band_scalar = best_of(reps, [&] {
    std::size_t count = 0;
    for (std::size_t i = 0; i < records; ++i) {
      if (static_cast<double>(x[i]) >= 0.9 && static_cast<double>(x[i]) <= 3.2 &&
          static_cast<double>(y[i]) >= 1.2) {
        ++count;
      }
    }
    return count;
  });
  std::printf("%-24s %10.4f s  %14.0f elems/s   (scalar %.4f s, %.2fx)\n", "count_band_ge",
              band_simd, static_cast<double>(records) / band_simd, band_scalar,
              band_scalar / band_simd);

  std::vector<std::uint8_t> mask(records);
  const double mask_simd = best_of(reps, [&] {
    util::simd::mask_ge2(x.data(), y.data(), records, 2.0, 1.5, mask.data());
    return static_cast<std::size_t>(mask[0]);
  });
  const double mask_scalar = best_of(reps, [&] {
    for (std::size_t i = 0; i < records; ++i) {
      mask[i] = (static_cast<double>(x[i]) >= 2.0 && static_cast<double>(y[i]) >= 1.5) ? 1 : 0;
    }
    return static_cast<std::size_t>(mask[0]);
  });
  std::printf("%-24s %10.4f s  %14.0f elems/s   (scalar %.4f s, %.2fx)\n", "mask_ge2", mask_simd,
              static_cast<double>(records) / mask_simd, mask_scalar, mask_scalar / mask_simd);

  return 0;
}
