// Golden pins of the mesh data plane's own numbers.
//
// mesh_determinism_test compares two runs of the same build, and the
// benchmark digests leave the metrics roll-up out, so neither notices a
// change to the digest-byte accounting or to the order in which gossip
// copies chunks that happens to keep the ack counts. This suite pins the
// absolute values instead, on two 1-day missions:
//
//   (a) a 9-beacon power-storm habitat whose storm wipes a chunk's only
//       replica, leaving a permanent sequence hole (extras on every node);
//   (b) a 27-beacon capped-replication habitat, where non-home nodes
//       decline record chunks and only note them in their version vector.
//
// Each pins every GossipStats field, every mesh.* counter, the acked-key
// count, an FNV-1a fold of every live node's store_digest(), the badge
// origins with a hole, and the chunks nodes know of but declined. The
// values were recorded before the data plane moved to run-length SeqSets
// and per-origin stores; a representation change must keep all of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "fleet/campaign.hpp"
#include "mesh/mesh.hpp"

namespace hs::mesh {
namespace {

struct Pinned {
  GossipStats stats;
  /// Every mesh.* counter of the mission's registry, in name order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::size_t acked = 0;
  /// FNV-1a over (node id, store_digest()) of every live node, id order.
  std::uint64_t store_fold = 0;
  /// Badge origins whose seqs, merged over every live node, have a gap.
  std::size_t holed_origins = 0;
  /// Sequence numbers live nodes hold in their version vectors without a
  /// stored copy (capped replication's declines).
  std::size_t declined = 0;
};

Pinned run_pinned(core::MissionConfig config) {
  core::MissionRunner runner(std::move(config));
  (void)runner.run();
  const MeshNetwork& mesh = *runner.mesh();

  Pinned p;
  p.stats = mesh.stats();
  for (const auto& e : runner.metrics().snapshot().entries) {
    if (e.kind == 'c' && e.name.rfind("mesh.", 0) == 0) p.counters.emplace_back(e.name, e.count);
  }
  p.acked = mesh.acked_keys().size();

  std::uint64_t h = 14695981039346656037ULL;
  const auto eat = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  std::map<OriginId, SeqSet> merged;
  for (const auto& node : mesh.nodes()) {
    if (node.down()) continue;
    eat(node.id());
    eat(node.store_digest());
    std::size_t known = 0;
    for (const auto& [origin, seqs] : node.version_vector()) {
      known += seqs.size();
      if (origin < kNodeOriginBase) merged[origin].merge(seqs);
    }
    p.declined += known - node.chunk_count();
  }
  p.store_fold = h;
  for (const auto& [origin, seqs] : merged) p.holed_origins += seqs.extras().empty() ? 0 : 1;
  return p;
}

void expect_stats(const GossipStats& s, const GossipStats& want) {
  EXPECT_EQ(s.rounds, want.rounds);
  EXPECT_EQ(s.exchanges, want.exchanges);
  EXPECT_EQ(s.skipped_links, want.skipped_links);
  EXPECT_EQ(s.chunks_replicated, want.chunks_replicated);
  EXPECT_EQ(s.digest_bytes, want.digest_bytes);
  EXPECT_EQ(s.replication_bytes, want.replication_bytes);
  EXPECT_EQ(s.offload_bytes, want.offload_bytes);
  EXPECT_EQ(s.offloads, want.offloads);
  EXPECT_EQ(s.offload_deferrals, want.offload_deferrals);
}

TEST(MeshGolden, PowerStormWithSequenceHolePinned) {
  fleet::HabitatSpec spec;
  spec.seed = 3;
  spec.days = 1;
  spec.beacons = 9;
  spec.cascade = "power-storm";
  const Pinned p = run_pinned(fleet::make_mission_config(spec));

  expect_stats(p.stats, {.rounds = 2879,
                         .exchanges = 55782,
                         .skipped_links = 778,
                         .chunks_replicated = 55529,
                         .digest_bytes = 121814524,
                         .replication_bytes = 171882876,
                         .offload_bytes = 18197731,
                         .offloads = 5603,
                         .offload_deferrals = 0});
  const std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"mesh.chunks_offloaded", 5603},       {"mesh.chunks_replicated", 55529},
      {"mesh.digest_bytes", 121814524},      {"mesh.gossip_exchanges", 55782},
      {"mesh.gossip_rounds", 2879},          {"mesh.offload_bytes", 18197731},
      {"mesh.offload_deferrals", 0},         {"mesh.replication_acks", 5589},
      {"mesh.replication_bytes", 171882876}, {"mesh.skipped_links", 778},
  };
  EXPECT_EQ(p.counters, counters);
  EXPECT_EQ(p.acked, 5589u);
  EXPECT_EQ(p.store_fold, 0xb45b016eda67e662ULL);
  EXPECT_EQ(p.holed_origins, 2u);
  EXPECT_EQ(p.declined, 0u);
}

TEST(MeshGolden, CappedReplicationWithDeclinesPinned) {
  fleet::HabitatSpec spec;
  spec.seed = 11;
  spec.days = 1;
  spec.beacons = 27;
  core::MissionConfig config = fleet::make_mission_config(spec);
  config.mesh.cap_replicas = true;
  const Pinned p = run_pinned(std::move(config));

  expect_stats(p.stats, {.rounds = 2879,
                         .exchanges = 161224,
                         .skipped_links = 0,
                         .chunks_replicated = 16228,
                         .digest_bytes = 25387754,
                         .replication_bytes = 73599369,
                         .offload_bytes = 25381469,
                         .offloads = 5613,
                         .offload_deferrals = 0});
  const std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"mesh.chunks_offloaded", 5613},      {"mesh.chunks_replicated", 16228},
      {"mesh.digest_bytes", 25387754},      {"mesh.gossip_exchanges", 161224},
      {"mesh.gossip_rounds", 2879},         {"mesh.offload_bytes", 25381469},
      {"mesh.offload_deferrals", 0},        {"mesh.replication_acks", 5597},
      {"mesh.replication_bytes", 73599369}, {"mesh.skipped_links", 0},
  };
  EXPECT_EQ(p.counters, counters);
  EXPECT_EQ(p.acked, 5597u);
  EXPECT_EQ(p.store_fold, 0x3daaecc351802452ULL);
  EXPECT_EQ(p.holed_origins, 0u);
  EXPECT_EQ(p.declined, 134944u);
}

}  // namespace
}  // namespace hs::mesh
