// The distributed in-habitat data plane (src/mesh): protocol units,
// standalone gossip behavior, and mission-scale contracts — byte-identity
// of mesh collection vs direct SD collection on a fault-free mission,
// acked-record durability under k-1 node deaths, partition heal +
// re-convergence, ballots without the base station, and support-system
// ingestion from the merged mesh read view.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/runner.hpp"
#include "mesh/ballots.hpp"
#include "mesh/chunk.hpp"
#include "mesh/gossip.hpp"
#include "mesh/mesh.hpp"
#include "mesh/read_view.hpp"
#include "support/system.hpp"

namespace hs::mesh {
namespace {

// ------------------------------------------------------------------ units

TEST(SeqSet, DensePrefixAndExtrasAbsorb) {
  SeqSet s;
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(1));
  EXPECT_EQ(s.next(), 2u);
  EXPECT_TRUE(s.extras().empty());
  // Out-of-order arrival parks in extras, then the gap-fill absorbs it.
  EXPECT_TRUE(s.insert(3));
  EXPECT_EQ(s.next(), 2u);
  EXPECT_EQ(s.extras().size(), 1u);
  EXPECT_TRUE(s.insert(2));
  EXPECT_EQ(s.next(), 4u);
  EXPECT_TRUE(s.extras().empty());
  // Duplicates are refused in both regions.
  EXPECT_FALSE(s.insert(1));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));
  EXPECT_EQ(s.size(), 5u);
}

TEST(SeqSet, MissingFromDiffsBothRegions) {
  SeqSet have;
  for (std::uint32_t i = 0; i < 5; ++i) have.insert(i);
  have.insert(8);
  SeqSet other;
  other.insert(0);
  other.insert(1);
  other.insert(3);
  const auto missing = have.missing_from(other);
  EXPECT_EQ(missing, (std::vector<std::uint32_t>{2, 4, 8}));
  EXPECT_TRUE(other.missing_from(other).empty());
}

TEST(GossipPeer, PureUniformAndNeverSelf) {
  constexpr std::size_t kNodes = 28;
  std::set<NodeId> seen;
  for (std::uint64_t round = 1; round <= 200; ++round) {
    for (NodeId node = 0; node < kNodes; ++node) {
      for (int draw = 0; draw < 2; ++draw) {
        const NodeId peer = gossip_peer(1234, node, round, draw, kNodes);
        EXPECT_NE(peer, node);
        EXPECT_LT(peer, kNodes);
        // Pure function: same arguments, same answer.
        EXPECT_EQ(peer, gossip_peer(1234, node, round, draw, kNodes));
        if (node == 0) seen.insert(peer);
      }
    }
  }
  // Node 0 eventually gossips with most of the habitat.
  EXPECT_GT(seen.size(), kNodes / 2);
}

TEST(RendezvousHome, ExactlyKHomesPerKey) {
  constexpr std::size_t kNodes = 28;
  constexpr int kReplication = 3;
  for (std::uint32_t seq = 0; seq < 50; ++seq) {
    const ChunkKey key{3, seq};
    int homes = 0;
    for (NodeId node = 0; node < kNodes; ++node) {
      homes += is_home(key, node, kReplication, kNodes) ? 1 : 0;
    }
    EXPECT_EQ(homes, kReplication) << "seq " << seq;
  }
  // k >= n degenerates to full replication.
  EXPECT_TRUE(is_home(ChunkKey{1, 1}, 5, 30, kNodes));
}

TEST(ChunkCodec, RecordsPayloadRoundTrips) {
  const OffloadVitals vitals{0.42, true, false, true};
  const std::vector<std::uint8_t> binlog{1, 2, 3, 250, 251};
  const auto payload = encode_records_payload(vitals, binlog);
  OffloadVitals v2;
  std::vector<std::uint8_t> b2;
  ASSERT_TRUE(decode_records_payload(payload, v2, b2));
  EXPECT_EQ(v2.battery_fraction, vitals.battery_fraction);
  EXPECT_EQ(v2.active, vitals.active);
  EXPECT_EQ(v2.docked, vitals.docked);
  EXPECT_EQ(v2.worn, vitals.worn);
  EXPECT_EQ(b2, binlog);
}

TEST(ChunkCodec, ControlItemsRoundTrip) {
  support::Alert alert{minutes(5), support::AlertKind::kBatteryLow,
                       support::Severity::kWarning, 3, "badge 3 at 12%"};
  support::Alert alert2;
  ASSERT_TRUE(decode_alert(encode_alert(alert), alert2));
  EXPECT_EQ(alert2.time, alert.time);
  EXPECT_EQ(alert2.kind, alert.kind);
  EXPECT_EQ(alert2.severity, alert.severity);
  EXPECT_EQ(alert2.astronaut, alert.astronaut);
  EXPECT_EQ(alert2.message, alert.message);

  ProposalItem item{7, hours(1), hours(2), {0, 1, 2, support::kMissionControl}, "mute biolab"};
  ProposalItem item2;
  ASSERT_TRUE(decode_proposal(encode_proposal(item), item2));
  EXPECT_EQ(item2.id, item.id);
  EXPECT_EQ(item2.proposed_at, item.proposed_at);
  EXPECT_EQ(item2.ttl, item.ttl);
  EXPECT_EQ(item2.roster, item.roster);
  EXPECT_EQ(item2.description, item.description);

  VoteItem vote{7, support::kMissionControl, true, hours(2)};
  VoteItem vote2;
  ASSERT_TRUE(decode_vote(encode_vote(vote), vote2));
  EXPECT_EQ(vote2.proposal, vote.proposal);
  EXPECT_EQ(vote2.voter, vote.voter);
  EXPECT_EQ(vote2.approve, vote.approve);
  EXPECT_EQ(vote2.cast_at, vote.cast_at);
}

TEST(MeshNode, InsertValidatesAndDownWipes) {
  MeshNode node(0, Vec2{0, 0}, habitat::RoomId::kAtrium);
  auto chunk = make_chunk(ChunkKey{1, 0}, ChunkKind::kRecords, 0, {1, 2, 3});
  EXPECT_TRUE(node.insert(chunk));
  EXPECT_FALSE(node.insert(chunk));  // duplicate
  auto corrupt = make_chunk(ChunkKey{1, 1}, ChunkKind::kRecords, 0, {4, 5});
  corrupt.checksum ^= 1;  // bit-flip in transfer
  EXPECT_FALSE(node.insert(corrupt));
  EXPECT_EQ(node.chunk_count(), 1u);

  node.set_down(true);
  EXPECT_EQ(node.chunk_count(), 0u);
  EXPECT_TRUE(node.version_vector().empty());
  EXPECT_FALSE(node.insert(chunk));  // dark nodes accept nothing
  node.set_down(false);
  EXPECT_TRUE(node.insert(chunk));  // anti-entropy can re-heal after power-up
}

TEST(MeshNode, RefusesChunkCarryingAnotherPayload) {
  MeshNode node(0, Vec2{0, 0}, habitat::RoomId::kAtrium);
  const auto first = make_chunk(ChunkKey{1, 0}, ChunkKind::kRecords, 0, {1, 2, 3});
  ASSERT_TRUE(node.insert(first));
  // Key and checksum of a real chunk, but another chunk's payload bytes.
  auto swapped = make_chunk(ChunkKey{1, 1}, ChunkKind::kRecords, 0, {4, 5});
  swapped.payload = first.payload;
  const VersionVector vv_before = node.version_vector();
  EXPECT_FALSE(node.insert(swapped));
  EXPECT_EQ(node.chunk_count(), 1u);
  EXPECT_EQ(node.version_vector(), vv_before);
  EXPECT_FALSE(node.has(ChunkKey{1, 1}));
}

TEST(ChunkPayload, HashesItsBytesOnce) {
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> bytes{0x00, 0x7f, 0x80, 0xff, 42};
  EXPECT_EQ(ChunkPayload(empty).fnv, fnv1a(empty));
  EXPECT_EQ(ChunkPayload(bytes).fnv, fnv1a(bytes));
  EXPECT_EQ(ChunkPayload(bytes).bytes, bytes);
  const auto chunk = make_chunk(ChunkKey{2, 0}, ChunkKind::kAlert, 0, bytes);
  EXPECT_EQ(chunk.checksum, fnv1a(bytes));
  EXPECT_EQ(chunk.payload->fnv, chunk.checksum);
}

// ------------------------------------------- standalone mesh (no mission)

class StandaloneMesh : public ::testing::Test {
 protected:
  StandaloneMesh()
      : habitat_(habitat::Habitat::lunares()),
        beacons_(beacon::deploy_lunares_beacons(habitat_, 27)) {}

  MeshNetwork make(MeshConfig config = {}) {
    config.enabled = true;
    return MeshNetwork(habitat_, beacons_,
                       habitat_.room(habitat::RoomId::kBedroom).bounds.center(), config, 99);
  }

  static void converge(MeshNetwork& mesh, int max_rounds = 64) {
    for (int i = 0; i < max_rounds && !mesh.converged(); ++i) {
      mesh.run_round(seconds(30 * (i + 1)));
    }
  }

  habitat::Habitat habitat_;
  std::vector<beacon::Beacon> beacons_;
};

TEST_F(StandaloneMesh, AlertDisseminatesToEveryLiveNode) {
  auto mesh = make();
  const support::Alert alert{0, support::AlertKind::kSensorLoss, support::Severity::kCritical,
                             std::nullopt, "badge 2 dark"};
  ASSERT_TRUE(mesh.publish_alert(3, alert, 0).has_value());
  converge(mesh);
  ASSERT_TRUE(mesh.converged());
  const MeshReadView view(mesh);
  for (const auto& node : mesh.nodes()) {
    const auto local = view.alerts_at(node.id());
    ASSERT_EQ(local.size(), 1u) << "node " << node.id();
    EXPECT_EQ(local[0].message, "badge 2 dark");
  }
}

TEST_F(StandaloneMesh, PartitionBlocksThenHealsByAntiEntropy) {
  auto mesh = make();
  std::vector<NodeId> side_a;
  std::vector<NodeId> side_b;
  for (NodeId id = 0; id < 14; ++id) side_a.push_back(id);
  for (NodeId id = 14; id < 28; ++id) side_b.push_back(id);
  mesh.add_partition(side_a, side_b);
  EXPECT_TRUE(mesh.blocked(0, 20));
  EXPECT_FALSE(mesh.blocked(0, 13));

  const support::Alert alert{0, support::AlertKind::kGroupTension,
                             support::Severity::kInfo, std::nullopt, "side A only"};
  ASSERT_TRUE(mesh.publish_alert(2, alert, 0).has_value());
  for (int i = 0; i < 64; ++i) mesh.run_round(seconds(30 * (i + 1)));
  const MeshReadView view(mesh);
  // Replicated everywhere on side A, nowhere on side B.
  for (const NodeId id : side_a) EXPECT_EQ(view.alerts_at(id).size(), 1u) << "node " << id;
  for (const NodeId id : side_b) EXPECT_TRUE(view.alerts_at(id).empty()) << "node " << id;
  EXPECT_GT(mesh.stats().skipped_links, 0u);

  mesh.remove_partition(side_a, side_b);
  EXPECT_FALSE(mesh.blocked(0, 20));
  converge(mesh);
  ASSERT_TRUE(mesh.converged());
  for (const NodeId id : side_b) EXPECT_EQ(view.alerts_at(id).size(), 1u) << "node " << id;
}

TEST_F(StandaloneMesh, NodeDeathLosesNothingOnceReplicated) {
  MeshConfig config;
  config.replication_factor = 3;
  auto mesh = make(config);
  const support::Alert alert{0, support::AlertKind::kResourceShortage,
                             support::Severity::kWarning, std::nullopt, "water"};
  const auto key = mesh.publish_alert(5, alert, 0);
  ASSERT_TRUE(key.has_value());
  converge(mesh);
  // Kill the publisher and the base station; the alert must survive.
  mesh.set_node_down(5, true);
  mesh.set_node_down(mesh.base_station_id(), true);
  const auto merged = mesh.merged_store();
  EXPECT_EQ(merged.count(*key), 1u);
}

TEST_F(StandaloneMesh, BallotsResolveWithoutBaseStation) {
  auto mesh = make();
  mesh.set_node_down(mesh.base_station_id(), true);  // no central sink

  const ProposalItem item{1, 0, hours(2), {0, 1, 2}, "reroute power"};
  ASSERT_TRUE(mesh.publish_proposal(4, item, 0).has_value());
  // Votes land at three different nodes — nobody talks to a coordinator.
  ASSERT_TRUE(mesh.publish_vote(7, VoteItem{1, 0, true, minutes(10)}, minutes(10)).has_value());
  ASSERT_TRUE(mesh.publish_vote(11, VoteItem{1, 1, true, minutes(20)}, minutes(20)).has_value());
  // The last ballot lands at exactly the deadline: inclusive, it counts.
  const SimTime deadline = item.proposed_at + item.ttl;
  ASSERT_TRUE(mesh.publish_vote(19, VoteItem{1, 2, true, deadline}, deadline).has_value());
  converge(mesh);

  // Every live node tallies locally and reaches the same verdict.
  for (const NodeId id : {NodeId{0}, NodeId{9}, NodeId{23}}) {
    const auto tallies = tally_ballots_at(mesh, id, deadline);
    ASSERT_EQ(tallies.size(), 1u) << "node " << id;
    EXPECT_EQ(tallies[0].state, support::ProposalState::kApproved) << "node " << id;
    EXPECT_EQ(tallies[0].votes_cast, 3u);
  }
}

TEST_F(StandaloneMesh, LateBallotExpiresProposalInTally) {
  auto mesh = make();
  const ProposalItem item{2, 0, hours(1), {0, 1}, "open airlock override"};
  ASSERT_TRUE(mesh.publish_proposal(0, item, 0).has_value());
  ASSERT_TRUE(mesh.publish_vote(3, VoteItem{2, 0, true, minutes(5)}, minutes(5)).has_value());
  // One microsecond past the inclusive deadline: expires, never counts.
  const SimTime late = item.proposed_at + item.ttl + 1;
  ASSERT_TRUE(mesh.publish_vote(8, VoteItem{2, 1, true, late}, late).has_value());
  converge(mesh);
  const auto tallies = tally_ballots_at(mesh, 15, late);
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].state, support::ProposalState::kExpired);
}

// ------------------------------------------------- mission-scale contracts

constexpr int kMissionDays = 4;

class MeshMissionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Reference: the same seed, no mesh, direct SD collection.
    core::MissionConfig direct;
    direct.seed = 42;
    core::MissionRunner direct_runner(direct);
    direct_ = std::make_unique<core::Dataset>(direct_runner.run_days(kMissionDays));

    // Mesh-collected run, kept alive for post-run mesh introspection.
    core::MissionConfig meshed;
    meshed.seed = 42;
    meshed.mesh.enabled = true;
    meshed.collect_from_mesh = true;
    runner_ = std::make_unique<core::MissionRunner>(meshed);
    meshed_ = std::make_unique<core::Dataset>(runner_->run_days(kMissionDays));
  }

  static void TearDownTestSuite() {
    direct_.reset();
    meshed_.reset();
    runner_.reset();
  }

  static std::unique_ptr<core::Dataset> direct_;
  static std::unique_ptr<core::Dataset> meshed_;
  static std::unique_ptr<core::MissionRunner> runner_;
};

std::unique_ptr<core::Dataset> MeshMissionTest::direct_;
std::unique_ptr<core::Dataset> MeshMissionTest::meshed_;
std::unique_ptr<core::MissionRunner> MeshMissionTest::runner_;

TEST_F(MeshMissionTest, MeshCollectionIsByteIdenticalToDirectFeed) {
  ASSERT_EQ(direct_->logs.size(), meshed_->logs.size());
  for (std::size_t i = 0; i < direct_->logs.size(); ++i) {
    ASSERT_EQ(direct_->logs[i].id, meshed_->logs[i].id);
    EXPECT_EQ(direct_->logs[i].card.export_binlog(), meshed_->logs[i].card.export_binlog())
        << "badge " << int(direct_->logs[i].id);
  }
}

TEST_F(MeshMissionTest, OffloadsFlowedAndNothingDeferred) {
  const auto& stats = runner_->mesh()->stats();
  EXPECT_GT(stats.offloads, 0u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.chunks_replicated, stats.offloads);  // replication fan-out
  // Fault-free, a live node is always in radio reach of every badge.
  EXPECT_EQ(stats.offload_deferrals, 0u);
}

TEST_F(MeshMissionTest, AckedMeansReplicationFactorReplicas) {
  auto* mesh = runner_->mesh();
  const auto acked = mesh->acked_keys();
  EXPECT_GT(acked.size(), 0u);
  const auto k = static_cast<std::size_t>(mesh->config().replication_factor);
  for (const auto& key : acked) {
    ASSERT_NE(mesh->trace(key), nullptr);
    EXPECT_GE(mesh->trace(key)->replicas, k);
  }
}

TEST_F(MeshMissionTest, KillingAnyKMinus1NodesLosesNoAckedRecord) {
  auto* mesh = runner_->mesh();
  // Drive anti-entropy to quiescence so the end-of-mission flush chunks
  // are replicated too, then verify the durability contract against
  // several kill sets of size k-1 (including the base station).
  for (int i = 0; i < 64 && !mesh->converged(); ++i) {
    mesh->run_round(day_start(kMissionDays + 1) + seconds(30 * (i + 1)));
  }
  ASSERT_TRUE(mesh->converged());
  const auto acked = mesh->acked_keys();
  ASSERT_GT(acked.size(), 0u);

  const NodeId base = mesh->base_station_id();
  const std::vector<std::vector<NodeId>> kill_sets = {
      {0, 1}, {base, 13}, {26, base}, {7, 19}, {2, 3}};
  for (const auto& kills : kill_sets) {
    ASSERT_EQ(kills.size(),
              static_cast<std::size_t>(mesh->config().replication_factor) - 1);
    MeshNetwork survivor = *mesh;  // kill a copy; each set starts fresh
    for (const NodeId id : kills) survivor.set_node_down(id, true);
    const auto merged = survivor.merged_store();
    for (const auto& key : acked) {
      ASSERT_EQ(merged.count(key), 1u)
          << "chunk (" << key.origin << "," << key.seq << ") lost after killing nodes "
          << kills[0] << "," << kills[1];
    }
  }
}

// Capped replication: storage stays bounded near k+1 copies per record
// chunk, yet the same k-1-deaths durability holds for acked chunks.
TEST(MeshCappedMission, BoundedReplicasStillDurable) {
  core::MissionConfig config;
  config.seed = 11;
  config.mesh.enabled = true;
  config.mesh.cap_replicas = true;
  config.mesh.replication_factor = 3;
  core::MissionRunner runner(config);
  (void)runner.run_days(2);
  auto* mesh = runner.mesh();
  // Extra rounds so flush-time chunks reach their rendezvous homes.
  for (int i = 0; i < 48; ++i) {
    mesh->run_round(day_start(3) + seconds(30 * (i + 1)));
  }

  const auto cap = static_cast<std::size_t>(config.mesh.replication_factor) + 1;
  std::size_t acked_records = 0;
  for (const auto& [key, trace] : mesh->traces()) {
    if (key.origin >= kNodeOriginBase) continue;
    EXPECT_LE(trace.replicas, cap) << "record chunk over-replicated";
    acked_records += trace.replicated_at >= 0 ? 1 : 0;
  }
  ASSERT_GT(acked_records, 0u);

  const auto acked = mesh->acked_keys();
  MeshNetwork survivor = *mesh;
  survivor.set_node_down(mesh->base_station_id(), true);
  survivor.set_node_down(4, true);
  const auto merged = survivor.merged_store();
  for (const auto& key : acked) {
    EXPECT_EQ(merged.count(key), 1u) << "acked chunk lost under capped replication";
  }
}

// A mid-mission radio partition (injected through the FaultPlan DSL) must
// not lose records — offload keeps landing on whichever side the badge can
// hear — and the sides must re-converge after the heal.
TEST(MeshPartitionMission, PartitionHealsAndLosesNoRecords) {
  const auto plan = faults::FaultPlan::parse(
      "plan split\n"
      "partition at=2d09:00 for=6h "
      "groups=0,1,2,3,4,5,6,7,8,9,10,11,12,13|14,15,16,17,18,19,20,21,22,23,24,25,26,27\n");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;

  core::MissionConfig direct;
  direct.seed = 21;
  core::MissionRunner direct_runner(direct);
  const auto direct_ds = direct_runner.run_days(3);

  core::MissionConfig meshed = direct;
  meshed.fault_plan = *plan;
  meshed.mesh.enabled = true;
  meshed.collect_from_mesh = true;
  core::MissionRunner runner(meshed);
  const auto mesh_ds = runner.run_days(3);

  // The partition was sealed radio, not lost data: collection through the
  // mesh still reproduces every SD card byte-for-byte.
  ASSERT_EQ(direct_ds.logs.size(), mesh_ds.logs.size());
  for (std::size_t i = 0; i < direct_ds.logs.size(); ++i) {
    EXPECT_EQ(direct_ds.logs[i].card.export_binlog(), mesh_ds.logs[i].card.export_binlog())
        << "badge " << int(direct_ds.logs[i].id);
  }

  auto* mesh = runner.mesh();
  EXPECT_GT(mesh->stats().skipped_links, 0u);  // the split really severed links
  const auto& records = runner.faults().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GE(records[0].activated_at, 0);
  EXPECT_GE(records[0].cleared_at, 0);

  for (int i = 0; i < 64 && !mesh->converged(); ++i) {
    mesh->run_round(day_start(4) + seconds(30 * (i + 1)));
  }
  EXPECT_TRUE(mesh->converged());
}

// The support system running purely off the mesh read view: piggybacked
// vitals raise kBatteryLow, and a badge that stops offloading (its cell
// died) reads as dark => kSensorLoss — no direct badge feed anywhere.
TEST(MeshSupportMission, SupportIngestsHealthFromMeshView) {
  core::MissionConfig config;
  config.seed = 42;
  config.mesh.enabled = true;
  config.fault_plan = faults::FaultPlan::battery_stress();  // badge 3 dies day 3
  core::MissionRunner runner(config);

  support::SupportSystem support;
  // Alerts the support system raises go back over the mesh too.
  runner.add_observer([&support](const core::MissionView& view) {
    if (view.now % minutes(5) != 0 || view.now == 0) return;
    support.set_alert_sink([&view](const support::Alert& alert) {
      (void)view.mesh->publish_alert(view.mesh->base_station_id(), alert, view.now);
    });
    const MeshReadView mesh_view(*view.mesh);
    for (const auto& health : mesh_view.health_snapshot(view.now, minutes(10))) {
      support.ingest_badge(health);
    }
    support.set_alert_sink(nullptr);
  });
  (void)runner.run_days(4);

  EXPECT_GE(support.alert_count(support::AlertKind::kBatteryLow), 1u);
  EXPECT_GE(support.alert_count(support::AlertKind::kSensorLoss), 1u);
  // The same alerts are in the replicated store, not just in RAM at the
  // base station.
  const MeshReadView view(*runner.mesh());
  EXPECT_EQ(view.alerts().size(), support.alerts().size());
}

}  // namespace
}  // namespace hs::mesh
