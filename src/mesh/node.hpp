// One replicating storage node of the in-habitat data plane.
//
// Every BLE beacon doubles as a MeshNode (wall-powered, already deployed
// in every room), plus one node at the base station. A node holds a local
// chunk store with its version vector; the store is volatile — a node
// that goes dark (beacon outage, partition-side power cut) loses its
// replicas and is re-healed by anti-entropy when it returns. Durability
// therefore comes from replication, never from any single node — exactly
// the paper's argument against the centralized sink.
#pragma once

#include <map>

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
    if (!down_) vv_[key.origin].insert(key.seq);
  }

  [[nodiscard]] bool has(ChunkKey key) const { return store_.count(key) > 0; }
  [[nodiscard]] const MeshChunk* find(ChunkKey key) const {
    const auto it = store_.find(key);
    return it == store_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<ChunkKey, MeshChunk>& store() const { return store_; }
  [[nodiscard]] const VersionVector& version_vector() const { return vv_; }
  [[nodiscard]] std::size_t chunk_count() const { return store_.size(); }
  [[nodiscard]] std::int64_t stored_bytes() const { return stored_bytes_; }

  /// Order-sensitive digest over (key, checksum): two nodes with equal
  /// digests hold byte-identical stores.
  [[nodiscard]] std::uint64_t store_digest() const;

  /// Power state. Going down wipes the store and version vector (volatile
  /// storage); anti-entropy restores the replicas after recovery.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

 private:
  NodeId id_;
  Vec2 position_;
  habitat::RoomId room_;
  bool down_ = false;
  std::map<ChunkKey, MeshChunk> store_;
  VersionVector vv_;
  std::int64_t stored_bytes_ = 0;
};

}  // namespace hs::mesh
