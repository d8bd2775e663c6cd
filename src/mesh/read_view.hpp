// Read side of the mesh: reconstructing datasets, vitals and alerts from
// replicated chunks.
//
// The analysis pipeline and the support system never touch MeshNode
// stores directly; they consume this view. rebuild_cards() replays every
// record chunk's binlog slice in sequence order, which reproduces each
// badge's SD card byte-for-byte (the mesh-collection mode's identity
// guarantee, tested in mesh_test). health_snapshot() turns piggybacked
// offload vitals into the BadgeHealth feed the support monitor expects —
// including synthesizing active=false for badges whose chunks stopped
// arriving, since a dead badge cannot report its own death.
#pragma once

#include <map>
#include <vector>

#include "badge/sdcard.hpp"
#include "mesh/mesh.hpp"
#include "support/badge_health.hpp"

namespace hs::mesh {

class MeshReadView {
 public:
  /// With a tracer, rebuild_cards() appends one kChunkRead span per record
  /// chunk it replays (parented to the chunk's offload span, closing the
  /// badge -> node -> replicas -> read-view lineage); `now` stamps those
  /// spans. health_snapshot() needs no tracer: it carries its provenance
  /// in BadgeHealth::source_origin/seq instead, so the support system can
  /// cite the exact chunk behind an alert.
  explicit MeshReadView(const MeshNetwork& mesh, obs::Tracer* tracer = nullptr, SimTime now = 0)
      : mesh_(&mesh), tracer_(tracer), now_(now) {}

  /// Rebuild each badge's SD card from the merged store: record chunks
  /// replayed in (origin, seq) order, streams appended in export order.
  /// Fault-free (every chunk offloaded and retained) the result is
  /// byte-identical to the badge's own card; under faults it holds
  /// whatever reached the surviving mesh.
  [[nodiscard]] std::map<io::BadgeId, badge::SdCard> rebuild_cards() const;

  /// Latest piggybacked vitals per badge, as the support system's
  /// BadgeHealth feed. `t` is the chunk's offload instant. A badge whose
  /// newest chunk is older than `stale_after` reads as active=false: from
  /// the mesh's vantage point a silent badge is a dark badge, which is
  /// precisely what should trip the kSensorLoss monitor. Served from
  /// MeshNetwork::vitals_index() in O(badges) per call — cheap enough for
  /// a per-tick support observer; chunks whose every replica died with
  /// its node are skipped, so the answer matches a merged-store scan.
  [[nodiscard]] std::vector<support::BadgeHealth> health_snapshot(
      SimTime now, SimDuration stale_after) const;

  /// Every alert present in the merged store, in publication (key) order.
  [[nodiscard]] std::vector<support::Alert> alerts() const;

  /// Alerts visible from one node's local store only — what a crew display
  /// wired to that node would show (dissemination testing).
  [[nodiscard]] std::vector<support::Alert> alerts_at(NodeId node) const;

 private:
  const MeshNetwork* mesh_;
  obs::Tracer* tracer_;
  SimTime now_;
};

}  // namespace hs::mesh
