#include "mesh/node.hpp"

#include <algorithm>

namespace hs::mesh {
namespace {

/// std::lower_bound's order of version-vector entries against an origin.
bool before_origin(const std::pair<OriginId, SeqSet>& entry, OriginId origin) {
  return entry.first < origin;
}

}  // namespace

bool MeshNode::insert(const MeshChunk& chunk) {
  if (down_) return false;
  if (chunk.payload == nullptr || chunk.payload->fnv != chunk.checksum) return false;
  const std::size_t i = origin_slot(chunk.key.origin);
  if (!note(i, chunk.key.seq)) return false;
  auto& chunks = chunks_[i];
  if (chunks.size() <= chunk.key.seq) chunks.resize(chunk.key.seq + std::size_t{1});
  chunks[chunk.key.seq] = chunk;
  ++chunk_count_;
  stored_bytes_ += static_cast<std::int64_t>(chunk.payload_bytes());
  return true;
}

std::size_t MeshNode::origin_index(OriginId origin) const {
  const auto it = std::lower_bound(vv_.begin(), vv_.end(), origin, before_origin);
  return it != vv_.end() && it->first == origin ? static_cast<std::size_t>(it - vv_.begin())
                                                : vv_.size();
}

std::size_t MeshNode::origin_slot(OriginId origin) {
  const auto it = std::lower_bound(vv_.begin(), vv_.end(), origin, before_origin);
  const auto i = static_cast<std::size_t>(it - vv_.begin());
  if (it == vv_.end() || it->first != origin) {
    const auto added = vv_.emplace(it, origin, SeqSet{});
    chunks_.emplace(chunks_.begin() + static_cast<std::ptrdiff_t>(i));
    digest_bytes_ += 2 + static_cast<std::int64_t>(added->second.digest_bytes());  // origin id
  }
  return i;
}

bool MeshNode::note(std::size_t i, std::uint32_t seq) {
  SeqSet& seqs = vv_[i].second;
  const auto before = static_cast<std::int64_t>(seqs.digest_bytes());
  if (!seqs.insert(seq)) return false;
  digest_bytes_ += static_cast<std::int64_t>(seqs.digest_bytes()) - before;
  return true;
}

const MeshChunk* MeshNode::find(ChunkKey key) const {
  const std::size_t i = origin_index(key.origin);
  if (i == vv_.size() || key.seq >= chunks_[i].size()) return nullptr;
  const MeshChunk& chunk = chunks_[i][key.seq];
  return chunk.payload != nullptr ? &chunk : nullptr;
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
  for_each_chunk([&eat](const MeshChunk& chunk) {
    eat((static_cast<std::uint64_t>(chunk.key.origin) << 32) | chunk.key.seq);
    eat(chunk.checksum);
  });
  return h;
}

void MeshNode::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down_) {
    vv_.clear();
    chunks_.clear();
    chunk_count_ = 0;
    stored_bytes_ = 0;
    digest_bytes_ = 0;
  }
}

}  // namespace hs::mesh
