// Mesh convergence bench: how the in-habitat data plane's durability and
// overhead respond to its three tuning knobs (gossip fanout, gossip
// period, replication factor), plus the storage cost of full replication
// vs rendezvous-capped replicas.
//
// Two experiments:
//   1. Mission sweep — a 2-day mission per configuration, reporting ack
//      latency percentiles (offload -> replication_factor replicas),
//      post-mission rounds to full convergence, and traffic split into
//      first-hop offload bytes, node-to-node replication bytes and
//      version-vector digest bytes.
//   2. Alert dissemination — a standalone mesh (no mission), one alert
//      published at node 0, measuring rounds until every node holds it.
//
// docs/MESH.md discusses the trade-offs these numbers quantify.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "mesh/read_view.hpp"
#include "util/stats.hpp"

namespace {

using namespace hs;

constexpr int kDays = 2;

void run_mission_config(std::uint64_t seed, int fanout, int period_s, int k, bool cap) {
  core::MissionConfig config;
  config.seed = seed;
  config.mesh.enabled = true;
  config.mesh.fanout = fanout;
  config.mesh.gossip_period_s = period_s;
  config.mesh.replication_factor = k;
  config.mesh.cap_replicas = cap;
  core::MissionRunner runner(config);
  (void)runner.run_days(kDays);
  auto* mesh = runner.mesh();

  std::vector<double> ack_s;
  for (const auto& [key, trace] : mesh->traces()) {
    if (key.origin >= mesh::kNodeOriginBase || trace.replicated_at < 0) continue;
    ack_s.push_back(static_cast<double>(trace.replicated_at - trace.offloaded_at) / kSecond);
  }

  // Rounds of anti-entropy needed after the end-of-mission flush until
  // every node's store is identical (capped mode never fully mirrors, so
  // report the rounds until the replication traffic goes quiet instead).
  int extra_rounds = 0;
  const SimTime end = day_start(kDays + 1);
  auto replicated = mesh->stats().chunks_replicated;
  for (; extra_rounds < 200; ++extra_rounds) {
    if (!cap && mesh->converged()) break;
    mesh->run_round(end + seconds(period_s * (extra_rounds + 1)));
    if (cap) {
      if (mesh->stats().chunks_replicated == replicated) break;
      replicated = mesh->stats().chunks_replicated;
    }
  }

  std::size_t store_bytes = 0;
  for (const auto& node : mesh->nodes()) store_bytes += node.stored_bytes();

  const auto& s = mesh->stats();
  const double overhead =
      s.offload_bytes > 0
          ? static_cast<double>(s.replication_bytes + s.digest_bytes) / s.offload_bytes
          : 0.0;
  std::printf("%6d %8d %2d %-4s | %7.0f %7.0f | %12llu %6d | %8.2f %10.1f\n", fanout, period_s,
              k, cap ? "cap" : "full", hs::percentile(ack_s, 50.0), hs::percentile(ack_s, 95.0),
              static_cast<unsigned long long>(s.chunks_replicated), extra_rounds, overhead,
              static_cast<double>(store_bytes) / (1024.0 * 1024.0));
}

void run_alert_config(std::uint64_t seed, int fanout, int period_s) {
  const auto habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat, 27);
  mesh::MeshConfig config;
  config.enabled = true;
  config.fanout = fanout;
  config.gossip_period_s = period_s;
  mesh::MeshNetwork mesh(habitat, beacons,
                         habitat.room(habitat::RoomId::kBedroom).bounds.center(), config, seed);

  const support::Alert alert{0, support::AlertKind::kSensorLoss, support::Severity::kCritical,
                             std::nullopt, "dissemination probe"};
  (void)mesh.publish_alert(0, alert, 0);
  int rounds = 0;
  const mesh::MeshReadView view(mesh);
  auto everywhere = [&] {
    for (const auto& node : mesh.nodes()) {
      if (view.alerts_at(node.id()).empty()) return false;
    }
    return true;
  };
  for (; rounds < 200 && !everywhere(); ++rounds) {
    mesh.run_round(seconds(period_s * (rounds + 1)));
  }
  std::printf("%6d %8d | %6d rounds  ~%4d s worst-node latency\n", fanout, period_s, rounds,
              rounds * period_s);
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = hs::bench::seed_from_args(argc, argv);
  std::printf("# Mesh convergence sweep, seed %llu, %d-day missions\n",
              static_cast<unsigned long long>(seed), kDays);

  std::printf("\n== mission sweep: ack latency / convergence / overhead ==\n");
  std::printf("%6s %8s %2s %-4s | %7s %7s | %12s %6s | %8s %10s\n", "fanout", "period_s", "k",
              "mode", "ack_p50", "ack_p95", "replications", "tail_r", "overhead", "store_MiB");
  for (const int fanout : {1, 2, 3}) {
    run_mission_config(seed, fanout, 30, 3, false);
  }
  for (const int period : {15, 60, 120}) {
    run_mission_config(seed, 2, period, 3, false);
  }
  run_mission_config(seed, 2, 30, 5, false);
  run_mission_config(seed, 2, 30, 3, true);
  run_mission_config(seed, 2, 30, 5, true);

  std::printf("\n== alert dissemination: rounds until every node holds one alert ==\n");
  std::printf("%6s %8s |\n", "fanout", "period_s");
  for (const int fanout : {1, 2, 3}) {
    run_alert_config(seed, fanout, 30);
  }
  return 0;
}
