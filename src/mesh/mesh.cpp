#include "mesh/mesh.hpp"

#include <algorithm>

#include "io/binlog.hpp"
#include "util/units.hpp"

namespace hs::mesh {
namespace {

const SeqSet kEmptySeqSet{};

}  // namespace

MeshNetwork::MeshNetwork(const habitat::Habitat& habitat,
                         const std::vector<beacon::Beacon>& beacons, Vec2 base_station,
                         MeshConfig config, std::uint64_t seed)
    : habitat_(&habitat), config_(config), seed_(seed) {
  nodes_.reserve(beacons.size() + 1);
  for (const auto& b : beacons) {
    nodes_.emplace_back(static_cast<NodeId>(b.id), b.position, b.room);
  }
  nodes_.emplace_back(static_cast<NodeId>(beacons.size()), base_station,
                      habitat.room_at(base_station));

  // Audibility mirrors BadgeNetwork: a badge can reach nodes in its own or
  // an adjacent room; the kRoomCount slot (unknown room) allows every node.
  candidates_.resize(habitat::kRoomCount + 1);
  for (const auto& node : nodes_) {
    for (int r = 0; r < habitat::kRoomCount; ++r) {
      const auto room = static_cast<habitat::RoomId>(r);
      if (node.room() == room || habitat.adjacent(node.room(), room)) {
        candidates_[r].push_back(node.id());
      }
    }
    candidates_[habitat::kRoomCount].push_back(node.id());
  }
}

void MeshNetwork::arm(sim::Simulation& sim) {
  const SimDuration period = seconds(config_.gossip_period_s);
  sim.schedule_periodic(period, period, [this, &sim] { run_round(sim.now()); });
}

bool MeshNetwork::has_pending(const badge::Badge& badge, const BadgeCursor& c) const {
  const auto& sd = badge.sd();
  return sd.beacon_obs().size() > c.beacon_obs || sd.pings().size() > c.pings ||
         sd.ir_contacts().size() > c.ir || sd.motion().size() > c.motion ||
         sd.audio().size() > c.audio || sd.env().size() > c.env ||
         sd.wear().size() > c.wear || sd.sync().size() > c.sync;
}

void MeshNetwork::tick(SimTime now) {
  if (badges_ == nullptr) return;
  const auto slot = now / kSecond;
  for (const auto& b : badges_->badges()) {
    if ((slot + 7 * b->id()) % config_.offload_period_s != 0) continue;
    if (b->battery().depleted()) continue;  // dead badges cannot transmit
    offload(*b, now);
  }
}

void MeshNetwork::flush(SimTime now) {
  if (badges_ == nullptr) return;
  for (const auto& b : badges_->badges()) {
    if (b->battery().depleted()) continue;
    offload(*b, now);
  }
}

void MeshNetwork::offload(const badge::Badge& badge, SimTime now) {
  auto& cursor = cursors_[badge.id()];
  if (!has_pending(badge, cursor)) return;

  const auto room = habitat_->room_at(badge.position());
  auto* target = const_cast<MeshNode*>(nearest_live_node(room, badge.position()));
  if (target == nullptr) {
    ++stats_.offload_deferrals;  // records stay on the SD card for next slot
    if (metrics_.offload_deferrals) metrics_.offload_deferrals->inc();
    if (recorder_) {
      recorder_->record(now, obs::Subsys::kMesh, obs::EventCode::kOffloadDeferred,
                        static_cast<std::int64_t>(badge.id()));
    }
    return;
  }

  // Cut one binlog slice covering everything logged since the last offload,
  // in the SD card's export stream order so replaying the slices in seq
  // order rebuilds a byte-identical card.
  const auto& sd = badge.sd();
  io::BinLogWriter w;
  std::size_t sliced = 0;
  const auto drain = [&w, &sliced](const auto& stream, std::size_t& from) {
    for (; from < stream.size(); ++from, ++sliced) w.append(stream[from]);
  };
  drain(sd.beacon_obs(), cursor.beacon_obs);
  drain(sd.pings(), cursor.pings);
  drain(sd.ir_contacts(), cursor.ir);
  drain(sd.motion(), cursor.motion);
  drain(sd.audio(), cursor.audio);
  drain(sd.env(), cursor.env);
  drain(sd.wear(), cursor.wear);
  drain(sd.sync(), cursor.sync);

  const OffloadVitals vitals{badge.battery().fraction(), badge.active(), badge.docked(),
                             badge.worn()};
  const ChunkKey key{static_cast<OriginId>(badge.id()), cursor.next_seq++};
  MeshChunk chunk =
      make_chunk(key, ChunkKind::kRecords, now, encode_records_payload(vitals, w.take()));
  const std::size_t wire = chunk.wire_bytes();
  target->insert(chunk);
  ++stats_.offloads;
  stats_.offload_bytes += static_cast<std::int64_t>(wire);
  if (metrics_.offloads) metrics_.offloads->inc();
  if (metrics_.offload_bytes) metrics_.offload_bytes->inc(wire);
  if (metrics_.chunk_wire_bytes) metrics_.chunk_wire_bytes->observe(static_cast<double>(wire));
  vitals_index_[badge.id()].push_back(VitalsEntry{now, key, vitals});
  auto& trace = trace_slot(key);
  trace.offloaded_at = now;
  if (tracer_) {
    // Root the chunk's trace: the badge-side slice, then the mesh-side
    // offload it parents. Replica/ack/read spans attach to the offload.
    const obs::TraceId tr = tracer_->chunk_trace(key.origin, key.seq);
    const obs::SpanId slice =
        tracer_->emit(tr, obs::SpanKind::kBadgeSlice, obs::Subsys::kBadge, now, now, 0,
                      static_cast<std::int64_t>(badge.id()), static_cast<std::int64_t>(sliced));
    trace.offload_span =
        tracer_->emit(tr, obs::SpanKind::kChunkOffload, obs::Subsys::kMesh, now, now, slice,
                      static_cast<std::int64_t>(key.origin), static_cast<std::int64_t>(key.seq),
                      static_cast<std::int64_t>(target->id()));
  }
  note_stored(key, now);
}

void MeshNetwork::run_round(SimTime now) {
  ++round_;
  ++stats_.rounds;
  if (metrics_.rounds) metrics_.rounds->inc();
  const std::size_t n = nodes_.size();
  for (auto& node : nodes_) {
    if (node.down()) continue;
    for (int draw = 0; draw < config_.fanout; ++draw) {
      const NodeId peer = gossip_peer(seed_, node.id(), round_, draw, n);
      if (nodes_[peer].down() || blocked(node.id(), peer)) {
        ++stats_.skipped_links;
        if (metrics_.skipped_links) metrics_.skipped_links->inc();
        continue;
      }
      exchange(node, nodes_[peer], now);
    }
  }
}

void MeshNetwork::exchange(MeshNode& a, MeshNode& b, SimTime now) {
  ++stats_.exchanges;
  if (metrics_.exchanges) metrics_.exchanges->inc();
  // Both sides send their whole digest; each node keeps its size as a
  // running total (2 bytes of origin id plus the SeqSet's bytes, per origin).
  const std::int64_t bytes = a.digest_bytes() + b.digest_bytes();
  stats_.digest_bytes += bytes;
  if (metrics_.digest_bytes) metrics_.digest_bytes->inc(static_cast<std::uint64_t>(bytes));

  const auto pull = [this, now](const MeshNode& src, MeshNode& dst) {
    const std::size_t n = nodes_.size();
    const VersionVector& theirs = src.version_vector();
    for (std::size_t i = 0; i < theirs.size(); ++i) {
      const auto& [origin, held] = theirs[i];
      const std::size_t j = dst.origin_index(origin);
      const SeqSet& mine = j < dst.version_vector().size() ? dst.version_vector()[j].second
                                                            : kEmptySeqSet;
      const std::vector<MeshChunk>& chunks = src.chunks_at(i);
      for (const std::uint32_t seq : held.missing_from(mine)) {
        // An empty slot: src knows of the chunk but declined the copy.
        if (seq >= chunks.size() || chunks[seq].payload == nullptr) continue;
        const ChunkKey key{origin, seq};
        const MeshChunk* chunk = &chunks[seq];
        if (config_.cap_replicas && chunk->kind == ChunkKind::kRecords &&
            !is_home(key, dst.id(), config_.replication_factor, n)) {
          dst.decline(key);
          continue;
        }
        if (dst.insert(*chunk)) {
          ++stats_.chunks_replicated;
          stats_.replication_bytes += static_cast<std::int64_t>(chunk->wire_bytes());
          if (metrics_.chunks_replicated) metrics_.chunks_replicated->inc();
          if (metrics_.replication_bytes) metrics_.replication_bytes->inc(chunk->wire_bytes());
          if (tracer_) {
            // Trace the durability path only: copies before the ack. The
            // steady-state anti-entropy after it stays in the counters
            // (tens of copies per chunk would drown every dump). The span
            // links (via kernel context) to the gossip round that ran it.
            const auto& trace = trace_slot(key);
            if (trace.replicated_at < 0) {
              tracer_->emit(tracer_->chunk_trace(key.origin, key.seq),
                            obs::SpanKind::kChunkReplicate, obs::Subsys::kMesh, now, now,
                            trace.offload_span, static_cast<std::int64_t>(src.id()),
                            static_cast<std::int64_t>(dst.id()));
            }
          }
          note_stored(key, now);
        }
      }
    }
  };
  pull(a, b);
  pull(b, a);
}

ChunkTrace& MeshNetwork::trace_slot(ChunkKey key) {
  if (traces_.size() <= key.origin) traces_.resize(key.origin + std::size_t{1});
  auto& per_origin = traces_[key.origin];
  if (per_origin.size() <= key.seq) per_origin.resize(key.seq + std::size_t{1});
  return per_origin[key.seq];
}

void MeshNetwork::note_stored(ChunkKey key, SimTime now) {
  auto& trace = trace_slot(key);
  ++trace.replicas;
  if (trace.replicated_at < 0 &&
      trace.replicas >= static_cast<std::size_t>(config_.replication_factor)) {
    trace.replicated_at = now;
    if (metrics_.replication_acks) metrics_.replication_acks->inc();
    if (recorder_) {
      recorder_->record(now, obs::Subsys::kMesh, obs::EventCode::kChunkAcked,
                        static_cast<std::int64_t>(key.origin), static_cast<std::int64_t>(key.seq));
    }
    if (tracer_) {
      tracer_->emit(tracer_->chunk_trace(key.origin, key.seq), obs::SpanKind::kChunkAck,
                    obs::Subsys::kMesh, now, now, trace.offload_span,
                    static_cast<std::int64_t>(key.origin), static_cast<std::int64_t>(key.seq),
                    static_cast<std::int64_t>(trace.replicas));
    }
  }
}

void MeshNetwork::set_metrics(obs::Registry* registry, obs::FlightRecorder* recorder) {
  recorder_ = recorder;
  if (registry == nullptr) {
    metrics_ = Instruments{};
    return;
  }
  metrics_.offloads = &registry->counter("mesh.chunks_offloaded");
  metrics_.offload_deferrals = &registry->counter("mesh.offload_deferrals");
  metrics_.offload_bytes = &registry->counter("mesh.offload_bytes");
  metrics_.rounds = &registry->counter("mesh.gossip_rounds");
  metrics_.exchanges = &registry->counter("mesh.gossip_exchanges");
  metrics_.skipped_links = &registry->counter("mesh.skipped_links");
  metrics_.digest_bytes = &registry->counter("mesh.digest_bytes");
  metrics_.chunks_replicated = &registry->counter("mesh.chunks_replicated");
  metrics_.replication_bytes = &registry->counter("mesh.replication_bytes");
  metrics_.replication_acks = &registry->counter("mesh.replication_acks");
  // Offloaded slices run a few hundred bytes (headers + a handful of
  // records) up to tens of KiB after a long deferral backlog.
  metrics_.chunk_wire_bytes =
      &registry->histogram("mesh.chunk_wire_bytes", {256, 1024, 4096, 16384, 65536});
}

void MeshNetwork::set_node_down(NodeId id, bool down) {
  auto& node = nodes_.at(id);
  if (down == node.down()) return;
  if (down) {
    // The store is about to be wiped: those replicas no longer exist.
    node.for_each_chunk([this](const MeshChunk& chunk) {
      auto& trace = trace_slot(chunk.key);
      if (trace.replicas > 0) --trace.replicas;
    });
  }
  node.set_down(down);
}

bool MeshNetwork::node_down(NodeId id) const { return nodes_.at(id).down(); }

void MeshNetwork::add_partition(std::vector<NodeId> group_a, std::vector<NodeId> group_b) {
  partitions_.emplace_back(std::move(group_a), std::move(group_b));
}

void MeshNetwork::remove_partition(const std::vector<NodeId>& group_a,
                                   const std::vector<NodeId>& group_b) {
  const auto it = std::find(partitions_.begin(), partitions_.end(),
                            std::pair(group_a, group_b));
  if (it != partitions_.end()) partitions_.erase(it);
}

bool MeshNetwork::blocked(NodeId a, NodeId b) const {
  const auto in = [](const std::vector<NodeId>& group, NodeId id) {
    return std::find(group.begin(), group.end(), id) != group.end();
  };
  for (const auto& [ga, gb] : partitions_) {
    if ((in(ga, a) && in(gb, b)) || (in(gb, a) && in(ga, b))) return true;
  }
  return false;
}

std::optional<ChunkKey> MeshNetwork::publish(NodeId at_node, ChunkKind kind,
                                             std::vector<std::uint8_t> payload, SimTime now) {
  auto& node = nodes_.at(at_node);
  if (node.down()) return std::nullopt;
  const ChunkKey key{node_origin(at_node), control_seq_[at_node]++};
  node.insert(make_chunk(key, kind, now, std::move(payload)));
  auto& trace = trace_slot(key);
  trace.offloaded_at = now;
  if (tracer_) {
    // Control items root their trace at the publish. When the publish
    // happens inside a pushed causal context (e.g. the support system's
    // alert-raise span), emit() records the cross-trace link itself.
    trace.offload_span = tracer_->emit(
        tracer_->chunk_trace(key.origin, key.seq), obs::SpanKind::kControlPublish,
        obs::Subsys::kMesh, now, now, 0, static_cast<std::int64_t>(at_node),
        static_cast<std::int64_t>(kind), static_cast<std::int64_t>(key.seq));
  }
  note_stored(key, now);
  return key;
}

std::optional<ChunkKey> MeshNetwork::publish_alert(NodeId at_node, const support::Alert& alert,
                                                   SimTime now) {
  return publish(at_node, ChunkKind::kAlert, encode_alert(alert), now);
}

std::optional<ChunkKey> MeshNetwork::publish_proposal(NodeId at_node, const ProposalItem& item,
                                                      SimTime now) {
  return publish(at_node, ChunkKind::kProposal, encode_proposal(item), now);
}

std::optional<ChunkKey> MeshNetwork::publish_vote(NodeId at_node, const VoteItem& item,
                                                  SimTime now) {
  return publish(at_node, ChunkKind::kVote, encode_vote(item), now);
}

std::map<ChunkKey, const MeshChunk*> MeshNetwork::merged_store() const {
  // Origin by origin, seq by seq, so every key lands at the map's end.
  // Each key maps to its copy on the lowest-id live node holding it.
  std::vector<OriginId> origins;
  for (const auto& node : nodes_) {
    if (node.down()) continue;
    for (const auto& [origin, seqs] : node.version_vector()) origins.push_back(origin);
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());

  std::map<ChunkKey, const MeshChunk*> merged;
  std::vector<const std::vector<MeshChunk>*> holders;  // live nodes' chunks of one origin
  for (const OriginId origin : origins) {
    holders.clear();
    std::size_t seq_end = 0;
    for (const auto& node : nodes_) {
      if (node.down()) continue;
      const std::size_t i = node.origin_index(origin);
      if (i == node.version_vector().size()) continue;
      holders.push_back(&node.chunks_at(i));
      seq_end = std::max(seq_end, node.chunks_at(i).size());
    }
    for (std::size_t seq = 0; seq < seq_end; ++seq) {
      for (const auto* chunks : holders) {
        if (seq < chunks->size() && (*chunks)[seq].payload != nullptr) {
          merged.emplace_hint(merged.end(), ChunkKey{origin, static_cast<std::uint32_t>(seq)},
                              &(*chunks)[seq]);
          break;
        }
      }
    }
  }
  return merged;
}

bool MeshNetwork::converged() const {
  bool any = false;
  std::uint64_t digest = 0;
  for (const auto& node : nodes_) {
    if (node.down()) continue;
    if (!any) {
      digest = node.store_digest();
      any = true;
    } else if (node.store_digest() != digest) {
      return false;
    }
  }
  return any;
}

std::vector<ChunkKey> MeshNetwork::acked_keys() const {
  std::vector<ChunkKey> keys;
  for (const auto& [key, trace] : traces()) {
    if (trace.replicated_at >= 0) keys.push_back(key);
  }
  return keys;
}

const MeshNode* MeshNetwork::nearest_live_node(habitat::RoomId room, Vec2 from) const {
  const std::size_t slot =
      room == habitat::RoomId::kNone ? habitat::kRoomCount : habitat::room_index(room);
  const MeshNode* best = nullptr;
  double best_dist = 0.0;
  for (const NodeId id : candidates_[slot]) {
    const MeshNode& node = nodes_[id];
    if (node.down()) continue;
    const double d = distance(node.position(), from);
    if (best == nullptr || d < best_dist) {  // ties keep the lowest id
      best = &node;
      best_dist = d;
    }
  }
  return best;
}

}  // namespace hs::mesh
