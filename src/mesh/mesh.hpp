// The distributed in-habitat data plane.
//
// Section VI of the paper demands an autonomous, resilient support system
// with no single crash point; the DORI line of work runs data handling on
// distributed field nodes rather than a central sink. MeshNetwork is that
// layer for the habitat: every beacon (plus the base station) is a
// MeshNode with a local replicated store, badges opportunistically
// offload binlog chunks to the nearest live node, and nodes converge via
// seeded, sim-kernel-scheduled push–pull gossip (per-node version
// vectors, per-chunk checksums). Alerts and change-proposal ballots ride
// the same store, so dissemination and consensus keep working when the
// base station is dark or the mesh is partitioned. docs/MESH.md has the
// protocol, invariants and tuning knobs.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "badge/network.hpp"
#include "beacon/beacon.hpp"
#include "habitat/habitat.hpp"
#include "mesh/chunk.hpp"
#include "mesh/gossip.hpp"
#include "mesh/node.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"

namespace hs::mesh {

struct MeshConfig {
  /// Build and run the mesh during the mission. Off by default: the
  /// direct-feed pipeline stays the reference path, and missions that
  /// never read the mesh do not pay for it.
  bool enabled = false;
  /// Seconds between a badge's offload attempts (staggered per badge).
  int offload_period_s = 120;
  /// Seconds between gossip rounds (every node gossips each round).
  int gossip_period_s = 30;
  /// Push-pull partners per node per round.
  int fanout = 2;
  /// Replicas a chunk needs before it counts as durably acked. With
  /// cap_replicas, also the rendezvous home-set size per record chunk.
  int replication_factor = 3;
  /// Bound record-chunk storage at ~(replication_factor + 1) copies
  /// (the k rendezvous homes plus the ingest node) instead of full
  /// replication. Control items always replicate everywhere.
  bool cap_replicas = false;
};

/// One entry of the incremental newest-chunk index: the vitals a badge
/// piggybacked on a record chunk, noted at offload time. Entries append
/// in seq order (offload seq is monotone per badge), so "newest chunk"
/// is the back of the vector and MeshReadView::health_snapshot is
/// O(badges) per call instead of a merged-store scan that grows
/// quadratic over the mission.
struct VitalsEntry {
  SimTime t = 0;        ///< offload instant (== the chunk's created_at)
  ChunkKey key{};       ///< provenance for BadgeHealth::source_origin/seq
  OffloadVitals vitals{};
};

/// Durability bookkeeping per chunk (introspection for tests/benches;
/// a real deployment would piggyback acks on the gossip exchanges).
struct ChunkTrace {
  SimTime offloaded_at = -1;   ///< accepted by the first node
  SimTime replicated_at = -1;  ///< replica count first reached replication_factor
  std::size_t replicas = 0;    ///< live replica count (drops when a node dies)
  /// Root span of the chunk's causal trace (the offload / publish); 0
  /// when no tracer is attached. Replica and ack spans parent to it.
  obs::SpanId offload_span = 0;
};

/// Every chunk's trace as (key, trace) pairs in (origin, seq) order: a
/// view over MeshNetwork's per-origin trace vectors.
class TraceView {
 public:
  using Traces = std::vector<std::vector<ChunkTrace>>;  ///< [origin][seq]

  class iterator {
   public:
    using value_type = std::pair<ChunkKey, const ChunkTrace&>;

    iterator(const Traces* traces, std::size_t origin) : traces_(traces), origin_(origin) {
      skip_empty();
    }
    value_type operator*() const {
      return {ChunkKey{static_cast<OriginId>(origin_), seq_}, (*traces_)[origin_][seq_]};
    }
    iterator& operator++() {
      if (++seq_ == (*traces_)[origin_].size()) {
        seq_ = 0;
        ++origin_;
        skip_empty();
      }
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    void skip_empty() {
      while (origin_ < traces_->size() && (*traces_)[origin_].empty()) ++origin_;
    }

    const Traces* traces_;
    std::size_t origin_;
    std::uint32_t seq_ = 0;
  };

  explicit TraceView(const Traces& traces) : traces_(&traces) {}
  [[nodiscard]] iterator begin() const { return {traces_, 0}; }
  [[nodiscard]] iterator end() const { return {traces_, traces_->size()}; }
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& per_origin : *traces_) n += per_origin.size();
    return n;
  }

 private:
  const Traces* traces_;
};

class MeshNetwork {
 public:
  /// One node per beacon (same id, position, room) plus the base-station
  /// node at `base_station` with id == beacons.size().
  MeshNetwork(const habitat::Habitat& habitat, const std::vector<beacon::Beacon>& beacons,
              Vec2 base_station, MeshConfig config, std::uint64_t seed);

  /// Wire the badge fleet the offload path reads. Required before tick()
  /// or flush(); gossip and publishing work without it.
  void attach(const badge::BadgeNetwork* network) { badges_ = network; }

  /// Schedule the periodic gossip round on the simulation kernel.
  void arm(sim::Simulation& sim);

  /// Per-second offload pass: badges whose stagger slot is due and that
  /// hold unshipped records offload one chunk to the nearest live node.
  void tick(SimTime now);

  /// Ship every badge's remaining records (end of mission, before the SD
  /// cards are pulled). Dead badges cannot transmit and are skipped.
  void flush(SimTime now);

  /// One gossip round now (also what the armed periodic event runs).
  void run_round(SimTime now);

  // --- fault hooks (driven by hs::faults) ----------------------------------
  /// Node power state; going down wipes the node's volatile store.
  void set_node_down(NodeId id, bool down);
  [[nodiscard]] bool node_down(NodeId id) const;
  /// Sever every gossip link between the two groups (radio partition).
  void add_partition(std::vector<NodeId> group_a, std::vector<NodeId> group_b);
  /// Heal a partition previously added with the same groups.
  void remove_partition(const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);
  [[nodiscard]] bool blocked(NodeId a, NodeId b) const;

  // --- control items ---------------------------------------------------------
  /// Publish an alert / proposal / ballot into `at_node`'s store; gossip
  /// replicates it mesh-wide. Returns nullopt when the node is down.
  std::optional<ChunkKey> publish_alert(NodeId at_node, const support::Alert& alert, SimTime now);
  std::optional<ChunkKey> publish_proposal(NodeId at_node, const ProposalItem& item, SimTime now);
  std::optional<ChunkKey> publish_vote(NodeId at_node, const VoteItem& item, SimTime now);

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const std::vector<MeshNode>& nodes() const { return nodes_; }
  [[nodiscard]] NodeId base_station_id() const { return static_cast<NodeId>(nodes_.size() - 1); }
  [[nodiscard]] const MeshConfig& config() const { return config_; }
  [[nodiscard]] const GossipStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t round() const { return round_; }
  [[nodiscard]] TraceView traces() const { return TraceView(traces_); }
  /// The trace of `key`, or null for a key never offloaded or published.
  [[nodiscard]] const ChunkTrace* trace(ChunkKey key) const {
    if (key.origin >= traces_.size() || key.seq >= traces_[key.origin].size()) return nullptr;
    return &traces_[key.origin][key.seq];
  }

  /// The incremental newest-chunk index: per badge, every record chunk's
  /// offload vitals in seq order. Maintained by offload()/flush(); the
  /// read view's health_snapshot consumes this instead of scanning the
  /// merged store.
  [[nodiscard]] const std::map<io::BadgeId, std::vector<VitalsEntry>>& vitals_index() const {
    return vitals_index_;
  }
  /// Live replica count of `key` right now (0 after every holder went
  /// dark — the chunk is gone until anti-entropy re-heals nothing, i.e.
  /// the data is lost and the index must fall back to an older entry).
  [[nodiscard]] std::size_t live_replicas(ChunkKey key) const {
    const ChunkTrace* t = trace(key);
    return t == nullptr ? 0 : t->replicas;
  }

  /// Union of every live node's store (the mesh read view's input): each
  /// key maps to its copy on the lowest-id live node holding it. The
  /// pointers are valid until a node's store next changes.
  [[nodiscard]] std::map<ChunkKey, const MeshChunk*> merged_store() const;
  /// All live nodes hold byte-identical stores (full-replication mode).
  [[nodiscard]] bool converged() const;
  /// Chunks that reached replication_factor replicas (durably acked).
  [[nodiscard]] std::vector<ChunkKey> acked_keys() const;

  /// Nearest live node audible from `room` (same or adjacent room), by
  /// distance then lowest id; nullptr when every candidate is dark.
  [[nodiscard]] const MeshNode* nearest_live_node(habitat::RoomId room, Vec2 from) const;

  /// Mirror GossipStats into `registry` counters (mesh.* names) and log
  /// rare data-plane transitions (deferred offloads, replication acks) to
  /// `recorder`. Either may be null; both must outlive this network.
  void set_metrics(obs::Registry* registry, obs::FlightRecorder* recorder);

  /// Register the causal tracer. Every chunk gets one trace (a pure
  /// function of seed + its key): the badge slice and offload root it,
  /// pre-ack gossip copies add replica spans (post-ack anti-entropy is
  /// counted in mesh.chunks_replicated, not traced — it would dwarf the
  /// dump), the replication ack closes the durability question, and the
  /// read view appends read spans. Null detaches; must outlive this
  /// network. docs/TRACING.md has the span model.
  void set_trace(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct BadgeCursor {
    std::size_t beacon_obs = 0, pings = 0, ir = 0, motion = 0;
    std::size_t audio = 0, env = 0, wear = 0, sync = 0;
    std::uint32_t next_seq = 0;
  };

  [[nodiscard]] bool has_pending(const badge::Badge& badge, const BadgeCursor& cursor) const;
  void offload(const badge::Badge& badge, SimTime now);
  void exchange(MeshNode& a, MeshNode& b, SimTime now);
  /// Replica-count bookkeeping after a successful store (ack tracking).
  void note_stored(ChunkKey key, SimTime now);
  /// The trace of `key`, created when new. Sequence numbers are dense per
  /// origin (offload and publish hand them out in order), and a chunk
  /// reaches a store only after its offload or publish created its trace.
  ChunkTrace& trace_slot(ChunkKey key);
  std::optional<ChunkKey> publish(NodeId at_node, ChunkKind kind,
                                  std::vector<std::uint8_t> payload, SimTime now);

  const habitat::Habitat* habitat_;
  MeshConfig config_;
  std::uint64_t seed_;
  const badge::BadgeNetwork* badges_ = nullptr;
  std::vector<MeshNode> nodes_;
  /// Candidate node indices per room (same or adjacent; kRoomCount slot =
  /// unknown room, every node) — mirrors BadgeNetwork's audibility rule.
  std::vector<std::vector<NodeId>> candidates_;
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> partitions_;
  std::map<io::BadgeId, BadgeCursor> cursors_;
  std::map<io::BadgeId, std::vector<VitalsEntry>> vitals_index_;
  std::map<NodeId, std::uint32_t> control_seq_;
  TraceView::Traces traces_;  ///< [origin][seq]
  GossipStats stats_;
  std::uint64_t round_ = 0;

  /// Registered counters/histograms; all null until set_metrics(). Kept
  /// as pointers so the hot paths cost one branch when unobserved.
  struct Instruments {
    obs::Counter* offloads = nullptr;
    obs::Counter* offload_deferrals = nullptr;
    obs::Counter* offload_bytes = nullptr;
    obs::Counter* rounds = nullptr;
    obs::Counter* exchanges = nullptr;
    obs::Counter* skipped_links = nullptr;
    obs::Counter* digest_bytes = nullptr;
    obs::Counter* chunks_replicated = nullptr;
    obs::Counter* replication_bytes = nullptr;
    obs::Counter* replication_acks = nullptr;
    obs::Histogram* chunk_wire_bytes = nullptr;
  };
  Instruments metrics_;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hs::mesh
