// One replicating storage node of the in-habitat data plane.
//
// Every BLE beacon doubles as a MeshNode (wall-powered, already deployed
// in every room), plus one node at the base station. A node holds a local
// chunk store with its version vector; the store is volatile — a node
// that goes dark (beacon outage, partition-side power cut) loses its
// replicas and is re-healed by anti-entropy when it returns. Durability
// therefore comes from replication, never from any single node — exactly
// the paper's argument against the centralized sink.
//
// The store is flat: per origin, a seq-indexed vector of chunks kept
// next to that origin's SeqSet in the version vector, so gossip reads a
// missing chunk by index and walks the store in (origin, seq) order.
#pragma once

#include <cstddef>
#include <vector>

#include "habitat/habitat.hpp"
#include "mesh/chunk.hpp"
#include "mesh/gossip.hpp"
#include "util/vec2.hpp"

namespace hs::mesh {

class MeshNode {
 public:
  MeshNode(NodeId id, Vec2 position, habitat::RoomId room)
      : id_(id), position_(position), room_(room) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Vec2 position() const { return position_; }
  [[nodiscard]] habitat::RoomId room() const { return room_; }

  /// Store a chunk. Returns false (and stores nothing) when the node is
  /// down, the chunk is a duplicate, or its checksum does not match its
  /// payload's hash (corrupted transfer). The hash was computed once, when
  /// the payload was built, so this is an integer compare.
  bool insert(const MeshChunk& chunk);

  /// Record knowledge of a chunk without storing a copy (cap_replicas
  /// mode: a non-home node declines the payload, and marking it in the
  /// version vector keeps anti-entropy from re-offering it every round).
  void decline(ChunkKey key) {
    if (!down_) (void)note(origin_slot(key.origin), key.seq);
  }

  [[nodiscard]] bool has(ChunkKey key) const { return find(key) != nullptr; }
  /// The stored chunk, or null. Like every pointer or reference into the
  /// store, valid until this node next stores a chunk or goes down.
  [[nodiscard]] const MeshChunk* find(ChunkKey key) const;
  /// Visit every stored chunk in (origin, seq) order.
  template <class Visit>
  void for_each_chunk(Visit&& visit) const {
    for (const auto& chunks : chunks_) {
      for (const MeshChunk& chunk : chunks) {
        if (chunk.payload != nullptr) visit(chunk);
      }
    }
  }
  [[nodiscard]] const VersionVector& version_vector() const { return vv_; }
  /// Position of `origin` in version_vector(), or version_vector().size()
  /// when this node knows no chunk of it.
  [[nodiscard]] std::size_t origin_index(OriginId origin) const;
  /// The chunks of version_vector()[i]'s origin, indexed by seq. A slot
  /// without a payload is not held here (never received, or declined).
  [[nodiscard]] const std::vector<MeshChunk>& chunks_at(std::size_t i) const { return chunks_[i]; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::int64_t stored_bytes() const { return stored_bytes_; }
  /// Wire size of this node's whole digest: per origin, a 2-byte origin
  /// id plus SeqSet::digest_bytes(). Kept as a running total.
  [[nodiscard]] std::int64_t digest_bytes() const { return digest_bytes_; }

  /// Order-sensitive digest over (key, checksum): two nodes with equal
  /// digests hold byte-identical stores.
  [[nodiscard]] std::uint64_t store_digest() const;

  /// Power state. Going down wipes the store and version vector (volatile
  /// storage); anti-entropy restores the replicas after recovery.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

 private:
  /// Index of `origin` in vv_ and chunks_, adding an empty entry if new.
  std::size_t origin_slot(OriginId origin);
  /// Add `seq` to entry i's SeqSet, keeping the digest total; false when
  /// it is already known.
  bool note(std::size_t i, std::uint32_t seq);

  NodeId id_;
  Vec2 position_;
  habitat::RoomId room_;
  bool down_ = false;
  VersionVector vv_;
  std::vector<std::vector<MeshChunk>> chunks_;  ///< parallel to vv_
  std::size_t chunk_count_ = 0;
  std::int64_t stored_bytes_ = 0;
  std::int64_t digest_bytes_ = 0;
};

}  // namespace hs::mesh
