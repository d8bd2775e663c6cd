#include "mesh/node.hpp"

namespace hs::mesh {

bool MeshNode::insert(const MeshChunk& chunk) {
  if (down_) return false;
  if (chunk.payload == nullptr || chunk.payload->fnv != chunk.checksum) return false;
  if (!vv_[chunk.key.origin].insert(chunk.key.seq)) return false;
  stored_bytes_ += static_cast<std::int64_t>(chunk.payload_bytes());
  store_.emplace(chunk.key, chunk);
  return true;
}

std::uint64_t MeshNode::store_digest() const {
  // FNV-1a fold over the ordered (origin, seq, checksum) triples.
  std::uint64_t h = 14695981039346656037ULL;
  const auto eat = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [key, chunk] : store_) {
    eat((static_cast<std::uint64_t>(key.origin) << 32) | key.seq);
    eat(chunk.checksum);
  }
  return h;
}

void MeshNode::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down_) {
    store_.clear();
    vv_.clear();
    stored_bytes_ = 0;
  }
}

}  // namespace hs::mesh
