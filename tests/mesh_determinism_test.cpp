// Mesh determinism, both halves of the reproducibility contract:
//
//  1. The mesh itself is a pure function of (seed, fault plan): two
//     missions with identical configs produce byte-identical node stores,
//     traces and transfer statistics. Gossip peer choice, offload
//     staggering and rendezvous placement never consult thread schedule
//     or wall clock (docs/CONCURRENCY.md), so there is nothing to drift.
//
//  2. A mesh-collected dataset flows through the analysis pipeline with
//     the same serial ≡ parallel guarantee as a direct-feed one: the
//     pipeline cannot tell where the cards came from. One mission per
//     seed feeds both thread counts (MissionRunner never reads them).
//
// Registered under both the `concurrency` and `mesh` ctest labels.
#include <gtest/gtest.h>

#include <memory>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "determinism_support.hpp"
#include "mesh/mesh.hpp"

namespace hs::core {
namespace {

/// Faults that land inside a 3-day window so the plan actually exercises
/// the mesh fault hooks (node death + partition) in both runs.
faults::FaultPlan short_fault_plan() {
  faults::FaultPlan plan("mesh determinism");
  plan.add({.kind = faults::FaultKind::kBeaconOutage,
            .start = day_start(1) + hours(10),
            .duration = hours(4),
            .beacon = 5});
  faults::FaultSpec split;
  split.kind = faults::FaultKind::kPartition;
  split.start = day_start(2) + hours(9);
  split.duration = hours(6);
  for (int id = 0; id < 14; ++id) split.group_a.push_back(id);
  for (int id = 14; id < 28; ++id) split.group_b.push_back(id);
  plan.add(split);
  return plan;
}

std::unique_ptr<MissionRunner> make_mesh_runner(std::uint64_t seed) {
  MissionConfig config;
  config.seed = seed;
  config.fault_plan = short_fault_plan();
  config.mesh.enabled = true;
  config.collect_from_mesh = true;
  return std::make_unique<MissionRunner>(config);
}

TEST(MeshDeterminism, SameSeedAndPlanYieldByteIdenticalMeshes) {
  auto first = make_mesh_runner(17);
  auto second = make_mesh_runner(17);
  const Dataset ds1 = first->run_days(3);
  const Dataset ds2 = second->run_days(3);

  const auto* m1 = first->mesh();
  const auto* m2 = second->mesh();
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);

  // Node-by-node store identity (digest folds every key and checksum).
  ASSERT_EQ(m1->nodes().size(), m2->nodes().size());
  for (std::size_t i = 0; i < m1->nodes().size(); ++i) {
    EXPECT_EQ(m1->nodes()[i].chunk_count(), m2->nodes()[i].chunk_count()) << "node " << i;
    EXPECT_EQ(m1->nodes()[i].store_digest(), m2->nodes()[i].store_digest()) << "node " << i;
  }

  // Every transfer counter: one extra exchange anywhere means gossip
  // consulted something outside (seed, node, round).
  const auto& s1 = m1->stats();
  const auto& s2 = m2->stats();
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.exchanges, s2.exchanges);
  EXPECT_EQ(s1.skipped_links, s2.skipped_links);
  EXPECT_EQ(s1.chunks_replicated, s2.chunks_replicated);
  EXPECT_EQ(s1.digest_bytes, s2.digest_bytes);
  EXPECT_EQ(s1.replication_bytes, s2.replication_bytes);
  EXPECT_EQ(s1.offload_bytes, s2.offload_bytes);
  EXPECT_EQ(s1.offloads, s2.offloads);
  EXPECT_EQ(s1.offload_deferrals, s2.offload_deferrals);

  // Durability bookkeeping, instant by instant.
  const auto& t1 = m1->traces();
  const auto& t2 = m2->traces();
  ASSERT_EQ(t1.size(), t2.size());
  for (const auto& [key, trace] : t1) {
    const mesh::ChunkTrace* other = m2->trace(key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(trace.offloaded_at, other->offloaded_at);
    EXPECT_EQ(trace.replicated_at, other->replicated_at);
    EXPECT_EQ(trace.replicas, other->replicas);
  }
  EXPECT_EQ(m1->acked_keys(), m2->acked_keys());

  // And the datasets rebuilt from the two meshes match byte for byte.
  ASSERT_EQ(ds1.logs.size(), ds2.logs.size());
  for (std::size_t i = 0; i < ds1.logs.size(); ++i) {
    EXPECT_EQ(ds1.logs[i].card.export_binlog(), ds2.logs[i].card.export_binlog())
        << "badge " << int(ds1.logs[i].id);
  }

  // The observability layer sits on top of all of the above, so its dumps
  // inherit the same guarantee: metrics CSV, flight log, and the causal
  // trace — byte for byte.
  const auto dumps_of = [](const MissionRunner& runner) {
    return test::MissionDumps{runner.metrics().snapshot(), runner.flight_recorder().to_csv(),
                              runner.tracer().to_csv()};
  };
  test::expect_same_dumps(dumps_of(*first), dumps_of(*second));

  // The mirrored mesh.* counters must agree exactly with GossipStats —
  // same increment sites, so any split means a missed instrumentation.
  const obs::Registry& metrics = first->metrics();
  ASSERT_NE(metrics.find_counter("mesh.gossip_rounds"), nullptr);
  EXPECT_EQ(metrics.find_counter("mesh.gossip_rounds")->value(), s1.rounds);
  EXPECT_EQ(metrics.find_counter("mesh.gossip_exchanges")->value(), s1.exchanges);
  EXPECT_EQ(metrics.find_counter("mesh.skipped_links")->value(), s1.skipped_links);
  EXPECT_EQ(metrics.find_counter("mesh.chunks_replicated")->value(), s1.chunks_replicated);
  EXPECT_EQ(metrics.find_counter("mesh.chunks_offloaded")->value(), s1.offloads);
  EXPECT_EQ(metrics.find_counter("mesh.offload_deferrals")->value(), s1.offload_deferrals);
  EXPECT_EQ(metrics.find_counter("mesh.digest_bytes")->value(),
            static_cast<std::uint64_t>(s1.digest_bytes));
  EXPECT_EQ(metrics.find_counter("mesh.replication_bytes")->value(),
            static_cast<std::uint64_t>(s1.replication_bytes));
  EXPECT_EQ(metrics.find_counter("mesh.offload_bytes")->value(),
            static_cast<std::uint64_t>(s1.offload_bytes));
  // Replication acks in the counter match the trace-level view.
  EXPECT_EQ(metrics.find_counter("mesh.replication_acks")->value(), m1->acked_keys().size());
}

/// Thread comparison on one 3-day mission under the beacon-outage +
/// mesh-partition plan: the analysis runs at threads=1 and with the pool
/// into two copies of the post-mission registry and tracer, so the mesh
/// is simulated once. The pipelines must agree on every product a
/// mesh-collected dataset feeds, and the combined mission + pipeline
/// metrics and trace dumps may not depend on the thread count. That a
/// fresh mission repeats is SameSeedAndPlanYieldByteIdenticalMeshes' job.
void expect_mesh_mission_thread_independent(std::uint64_t seed) {
  auto runner = make_mesh_runner(seed);
  const Dataset data = runner->run_days(3);
  const test::Analysis serial_copy(*runner, data, 1);
  const test::Analysis parallel_copy(*runner, data, 4);
  const AnalysisPipeline& serial = *serial_copy.pipeline;
  const AnalysisPipeline& parallel = *parallel_copy.pipeline;

  for (const auto& log : data.logs) {
    const auto* fs = serial.clock_fit(log.id);
    const auto* fp = parallel.clock_fit(log.id);
    ASSERT_EQ(fs == nullptr, fp == nullptr) << "badge " << int(log.id);
    if (fs == nullptr) continue;
    EXPECT_EQ(fs->offset_ms, fp->offset_ms) << "badge " << int(log.id);
    EXPECT_EQ(fs->rate, fp->rate) << "badge " << int(log.id);
    EXPECT_EQ(fs->samples, fp->samples) << "badge " << int(log.id);
  }
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    EXPECT_EQ(serial.track(i), parallel.track(i)) << "astronaut " << i;
  }

  const auto a = serial.artifacts();
  const auto b = parallel.artifacts();
  EXPECT_EQ(a.fig2.counts(), b.fig2.counts());
  ASSERT_EQ(a.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < a.table1.size(); ++i) {
    EXPECT_EQ(a.table1[i].talking, b.table1[i].talking) << "row " << i;
    EXPECT_EQ(a.table1[i].walking, b.table1[i].walking) << "row " << i;
    EXPECT_EQ(a.table1[i].company, b.table1[i].company) << "row " << i;
  }
  EXPECT_EQ(a.dataset.total_records, b.dataset.total_records);
  EXPECT_EQ(a.dataset.total_gib, b.dataset.total_gib);
  EXPECT_EQ(serial.voice_census(), parallel.voice_census());

  test::expect_same_dumps(serial_copy.dumps(), parallel_copy.dumps());
}

TEST(MeshDeterminism, MetricsDumpByteIdenticalUnderPartitionSeed7) {
  expect_mesh_mission_thread_independent(7);
}

TEST(MeshDeterminism, MetricsDumpByteIdenticalUnderPartitionSeed42) {
  expect_mesh_mission_thread_independent(42);
}

}  // namespace
}  // namespace hs::core
