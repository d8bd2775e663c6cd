// Mesh wire/storage unit: the replicated chunk.
//
// Everything the in-habitat data plane replicates — badge binlog slices,
// alert broadcasts, change proposals and ballots — travels and is stored
// as a MeshChunk: an immutable, checksummed blob identified by
// (origin, sequence). Origins are badges (record chunks) or mesh nodes
// (control items); per-origin sequences are dense, which is what lets the
// anti-entropy digests stay tiny (see gossip.hpp). Payload bytes are
// shared between replicas via shared_ptr: the simulation accounts
// transfer bytes without physically duplicating a 150 GiB dataset per
// node. The payload carries its FNV-1a, computed once when the bytes are
// created, so verifying a replica is one integer compare.
// docs/MESH.md documents the protocol around these.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/records.hpp"
#include "support/alert.hpp"
#include "support/consensus.hpp"
#include "util/units.hpp"

namespace hs::mesh {

/// Mesh node identity: beacon nodes reuse their beacon id; the base
/// station is one past the last beacon (27 in the canonical deployment).
using NodeId = std::uint16_t;

/// Chunk origin: badge ids as-is for record chunks; control items
/// published at a node use kNodeOriginBase + node id.
using OriginId = std::uint16_t;
constexpr OriginId kNodeOriginBase = 0x100;

constexpr OriginId node_origin(NodeId node) { return static_cast<OriginId>(kNodeOriginBase + node); }

enum class ChunkKind : std::uint8_t {
  kRecords = 1,  ///< binlog slice + piggybacked badge vitals
  kAlert = 2,    ///< support::Alert broadcast
  kProposal = 3, ///< ChangeProposal announcement (id, roster, deadline)
  kVote = 4,     ///< one ballot for a proposal
};

struct ChunkKey {
  OriginId origin = 0;
  std::uint32_t seq = 0;

  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

/// FNV-1a over a byte buffer; the per-chunk integrity checksum and the
/// building block of store digests.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

/// Immutable payload bytes plus their FNV-1a, hashed once on
/// construction. Every replica of a chunk shares one ChunkPayload.
struct ChunkPayload {
  explicit ChunkPayload(std::vector<std::uint8_t> payload)
      : bytes(std::move(payload)), fnv(fnv1a(bytes)) {}

  const std::vector<std::uint8_t> bytes;
  const std::uint64_t fnv;
};

struct MeshChunk {
  ChunkKey key;
  ChunkKind kind = ChunkKind::kRecords;
  /// Simulation instant the chunk was cut/published (reference timeline —
  /// nodes are wall-powered infrastructure with synchronized clocks).
  SimTime created_at = 0;
  std::shared_ptr<const ChunkPayload> payload;
  /// The FNV-1a the chunk claims for its payload; a node refuses a chunk
  /// whose payload hash differs (corrupted transfer).
  std::uint64_t checksum = 0;

  [[nodiscard]] std::size_t payload_bytes() const { return payload ? payload->bytes.size() : 0; }
  /// Bytes on the wire: fixed header (kind, key, time, checksum, length)
  /// plus the payload.
  [[nodiscard]] std::size_t wire_bytes() const { return 27 + payload_bytes(); }
};

/// Build a chunk: the only place payload bytes are hashed. The checksum
/// is the new payload's fnv.
MeshChunk make_chunk(ChunkKey key, ChunkKind kind, SimTime created_at,
                     std::vector<std::uint8_t> payload);

// --- record-chunk payloads ---------------------------------------------------

/// Vitals piggybacked on every record chunk so the support system can run
/// its badge-health monitoring from the mesh instead of a direct feed.
struct OffloadVitals {
  double battery_fraction = 1.0;
  bool active = false;
  bool docked = false;
  bool worn = false;
};

/// Record-chunk payload: [vitals header][binlog bytes].
std::vector<std::uint8_t> encode_records_payload(const OffloadVitals& vitals,
                                                 const std::vector<std::uint8_t>& binlog);
/// Split a record-chunk payload back into vitals + binlog bytes. Returns
/// false on a malformed (too short) payload.
bool decode_records_payload(const std::vector<std::uint8_t>& payload, OffloadVitals& vitals,
                            std::vector<std::uint8_t>& binlog);

// --- control payloads --------------------------------------------------------

std::vector<std::uint8_t> encode_alert(const support::Alert& alert);
bool decode_alert(const std::vector<std::uint8_t>& payload, support::Alert& out);

/// A proposal announcement carries everything a node needs to tally the
/// ballot locally: id, description, the full voter roster and the
/// deadline window.
struct ProposalItem {
  std::uint64_t id = 0;
  SimTime proposed_at = 0;
  SimDuration ttl = 0;
  std::vector<support::VoterId> roster;
  std::string description;
};

std::vector<std::uint8_t> encode_proposal(const ProposalItem& item);
bool decode_proposal(const std::vector<std::uint8_t>& payload, ProposalItem& out);

struct VoteItem {
  std::uint64_t proposal = 0;
  support::VoterId voter = 0;
  bool approve = false;
  SimTime cast_at = 0;
};

std::vector<std::uint8_t> encode_vote(const VoteItem& item);
bool decode_vote(const std::vector<std::uint8_t>& payload, VoteItem& out);

}  // namespace hs::mesh
