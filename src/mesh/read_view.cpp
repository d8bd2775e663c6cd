#include "mesh/read_view.hpp"

#include "io/binlog.hpp"

namespace hs::mesh {

std::map<io::BadgeId, badge::SdCard> MeshReadView::rebuild_cards() const {
  std::map<io::BadgeId, badge::SdCard> cards;
  // merged_store() iterates in ChunkKey order: per origin, ascending seq —
  // exactly the order the slices were cut in, so stream appends replay in
  // the original SD order.
  for (const auto& [key, chunk] : mesh_->merged_store()) {
    if (key.origin >= kNodeOriginBase || chunk->kind != ChunkKind::kRecords) continue;
    OffloadVitals vitals;
    std::vector<std::uint8_t> binlog;
    if (chunk->payload == nullptr || !decode_records_payload(chunk->payload->bytes, vitals, binlog)) {
      continue;
    }
    auto& card = cards[static_cast<io::BadgeId>(key.origin)];
    std::size_t replayed = 0;
    io::BinLogVisitor v;
    v.on_beacon_obs = [&](const io::BeaconObs& r) { card.log(r), ++replayed; };
    v.on_proximity_ping = [&](const io::ProximityPing& r) { card.log(r), ++replayed; };
    v.on_ir_contact = [&](const io::IrContact& r) { card.log(r), ++replayed; };
    v.on_motion_frame = [&](const io::MotionFrame& r) { card.log(r), ++replayed; };
    v.on_audio_frame = [&](const io::AudioFrame& r) { card.log(r), ++replayed; };
    v.on_env_frame = [&](const io::EnvFrame& r) { card.log(r), ++replayed; };
    v.on_wear_event = [&](const io::WearEvent& r) { card.log(r), ++replayed; };
    v.on_sync_sample = [&](const io::SyncSample& r) { card.log(r), ++replayed; };
    (void)io::replay_binlog(binlog, v);
    if (tracer_ != nullptr) {
      const ChunkTrace* trace = mesh_->trace(key);
      const obs::SpanId parent = trace == nullptr ? 0 : trace->offload_span;
      tracer_->emit(tracer_->chunk_trace(key.origin, key.seq), obs::SpanKind::kChunkRead,
                    obs::Subsys::kMesh, now_, now_, parent,
                    static_cast<std::int64_t>(key.origin), static_cast<std::int64_t>(key.seq),
                    static_cast<std::int64_t>(replayed));
    }
  }
  return cards;
}

std::vector<support::BadgeHealth> MeshReadView::health_snapshot(SimTime now,
                                                                SimDuration stale_after) const {
  // Served from the mesh's incremental newest-chunk index: per badge,
  // walk back from the newest entry to the first chunk that still has a
  // live replica (a chunk whose every copy died with its nodes is gone,
  // exactly as a merged-store scan would have concluded). The common case
  // touches only the back entry, so a per-tick support observer costs
  // O(badges) instead of O(nodes x chunks).
  std::vector<support::BadgeHealth> out;
  out.reserve(mesh_->vitals_index().size());
  for (const auto& [id, entries] : mesh_->vitals_index()) {
    const VitalsEntry* newest = nullptr;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (mesh_->live_replicas(it->key) > 0) {
        newest = &*it;
        break;
      }
    }
    if (newest == nullptr) continue;  // every copy of every chunk is dark
    support::BadgeHealth h;
    h.t = newest->t;
    h.badge = id;
    h.battery_fraction = newest->vitals.battery_fraction;
    // A badge that stopped offloading is dark as far as the mesh can tell.
    h.active = newest->vitals.active && (now - newest->t) <= stale_after;
    h.docked = newest->vitals.docked;
    h.worn = newest->vitals.worn;
    h.source_origin = static_cast<std::int64_t>(newest->key.origin);
    h.source_seq = static_cast<std::int64_t>(newest->key.seq);
    out.push_back(h);
  }
  return out;
}

namespace {

void append_alerts(const std::map<ChunkKey, const MeshChunk*>& store,
                   std::vector<support::Alert>& out) {
  for (const auto& [key, chunk] : store) {
    (void)key;
    if (chunk->kind != ChunkKind::kAlert) continue;
    support::Alert alert;
    if (decode_alert(chunk->payload->bytes, alert)) out.push_back(std::move(alert));
  }
}

}  // namespace

std::vector<support::Alert> MeshReadView::alerts() const {
  std::vector<support::Alert> out;
  append_alerts(mesh_->merged_store(), out);
  return out;
}

std::vector<support::Alert> MeshReadView::alerts_at(NodeId node) const {
  std::vector<support::Alert> out;
  mesh_->nodes().at(node).for_each_chunk([&out](const MeshChunk& chunk) {
    if (chunk.kind != ChunkKind::kAlert) return;
    support::Alert alert;
    if (decode_alert(chunk.payload->bytes, alert)) out.push_back(std::move(alert));
  });
  return out;
}

}  // namespace hs::mesh
