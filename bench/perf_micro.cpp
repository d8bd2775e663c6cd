// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// the event queue, RF propagation, room classification, triangulation,
// speech detection, HITS, and the hs::obs hot paths every instrumented
// call site pays (counter, histogram, span emit). The one-second world
// tick is timed inside the real mission loop instead: perfbench's traced
// run reports `badge.tick_s` and `crew.tick_s`.
#include <benchmark/benchmark.h>

#include "beacon/beacon.hpp"
#include "dsp/speech.hpp"
#include "habitat/propagation.hpp"
#include "locate/room_classifier.hpp"
#include "locate/triangulate.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"
#include "sna/hits.hpp"
#include "util/rng.hpp"

namespace hs {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_at(seconds(static_cast<std::int64_t>(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_PropagationMeanRssi(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const habitat::Propagation prop(habitat, habitat::kBleChannel);
  const Vec2 tx = habitat.room(habitat::RoomId::kKitchen).bounds.center();
  const Vec2 rx = habitat.room(habitat::RoomId::kOffice).bounds.center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.mean_rssi(tx, rx));
  }
}
BENCHMARK(BM_PropagationMeanRssi);

void BM_ChannelSampleRssi(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const habitat::Propagation prop(habitat, habitat::kBleChannel);
  Rng rng(1);
  const Vec2 tx = habitat.room(habitat::RoomId::kKitchen).bounds.center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.sample_rssi(tx, tx + Vec2{2.0, 1.0}, rng));
  }
}
BENCHMARK(BM_ChannelSampleRssi);

void BM_RoomClassifier(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  const locate::RoomClassifier classifier(beacons);
  // One hour of 1 Hz scans hearing 4 beacons each.
  std::vector<double> t_s;
  std::vector<io::BeaconId> beacon;
  std::vector<std::int8_t> rssi;
  Rng rng(2);
  for (int t = 0; t < 3600; ++t) {
    for (int b = 0; b < 4; ++b) {
      t_s.push_back(static_cast<double>(t));
      beacon.push_back(static_cast<io::BeaconId>(rng.uniform_int(9, 11)));
      rssi.push_back(static_cast<std::int8_t>(rng.uniform_int(-70, -40)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.classify(t_s.data(), beacon.data(), rssi.data(), t_s.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t_s.size()));
}
BENCHMARK(BM_RoomClassifier);

void BM_Triangulate(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  const locate::Triangulator tri(habitat, beacons);
  // One bin hearing every kitchen beacon.
  std::vector<double> t_s;
  std::vector<io::BeaconId> beacon;
  std::vector<std::int8_t> rssi;
  for (const auto& b : beacons) {
    if (b.room == habitat::RoomId::kKitchen) {
      t_s.push_back(0.0);
      beacon.push_back(b.id);
      rssi.push_back(-55);
    }
  }
  const std::vector<locate::RoomStay> track{{habitat::RoomId::kKitchen, 0.0, 1.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tri.fixes(t_s.data(), beacon.data(), rssi.data(), t_s.size(), track));
  }
}
BENCHMARK(BM_Triangulate);

void BM_SpeechDetector(benchmark::State& state) {
  const dsp::SpeechDetector detector;
  std::vector<double> t_s;
  std::vector<float> level;
  std::vector<float> voiced;
  std::vector<float> f0;
  Rng rng(3);
  for (int t = 0; t < 3600; ++t) {
    t_s.push_back(static_cast<double>(t));
    level.push_back(static_cast<float>(rng.uniform(30.0, 70.0)));
    voiced.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
    f0.push_back(120.0F);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.analyze(t_s.data(), level.data(), voiced.data(), f0.data(), t_s.size(), 0.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t_s.size()));
}
BENCHMARK(BM_SpeechDetector);

void BM_Hits(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> adj(n, std::vector<double>(n, 0.0));
  Rng rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      adj[i][j] = adj[j][i] = rng.uniform();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sna::hits(adj));
  }
}
BENCHMARK(BM_Hits)->Arg(6)->Arg(32)->Arg(128);

// The obs hot paths. Handles are registered once, as on the real call
// sites; ClobberMemory keeps the compiler from folding the loop into one
// add, so each iteration pays a real load-modify-store.
void BM_CounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& counter = reg.counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& hist = reg.histogram("bench.histogram", {10.0, 100.0, 1000.0});
  int i = 0;
  for (auto _ : state) {
    hist.observe(static_cast<double>(i++ % 2000));
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_TracerEmit(benchmark::State& state) {
  // Stored spans only: the tracer is replaced (untimed) when it fills, so
  // every timed emit takes the store path, never the counted-drop path.
  static constexpr std::size_t kSpans = std::size_t{1} << 16;
  const auto fresh = [] {
    obs::Tracer tracer(42, kSpans);
    // The kind's default budget is half the cap; lift it so the cap alone
    // decides when the tracer is full.
    tracer.set_kind_budget(obs::SpanKind::kChunkOffload, 0);
    return tracer;
  };
  obs::Tracer tracer = fresh();
  const obs::TraceId trace = tracer.chunk_trace(0, 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    if (tracer.size() == kSpans) {
      state.PauseTiming();
      tracer = fresh();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        tracer.emit(trace, obs::SpanKind::kChunkOffload, obs::Subsys::kMesh, i, i, 0, 0, i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEmit);

}  // namespace
}  // namespace hs

BENCHMARK_MAIN();
