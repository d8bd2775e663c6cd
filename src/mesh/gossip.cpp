#include "mesh/gossip.hpp"

#include <algorithm>

namespace hs::mesh {
namespace {

/// splitmix64: the seed mixer the Rng uses for stream forking; reused
/// here so peer choice is a self-contained pure function.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// std::upper_bound's order for a value against the runs: the value sorts
/// before every run that starts past it.
bool starts_past(std::uint32_t v, const SeqSet::Run& run) { return v < run.lo; }

}  // namespace

bool SeqSet::insert(std::uint32_t seq) {
  if (seq < next_) return false;
  // The first run starting past seq; only the run before it can hold seq.
  const auto after = std::upper_bound(runs_.begin(), runs_.end(), seq, starts_past);
  Run* before = after == runs_.begin() ? nullptr : &*std::prev(after);
  if (before != nullptr && seq < before->hi) return false;
  if (seq == next_) {
    ++next_;
    // Absorb the first run if the new prefix now reaches it. Runs are
    // never adjacent, so no second run can follow it in.
    if (!runs_.empty() && runs_.front().lo == next_) {
      extra_count_ -= runs_.front().hi - runs_.front().lo;
      next_ = runs_.front().hi;
      runs_.erase(runs_.begin());
    }
    return true;
  }
  ++extra_count_;
  const bool extends_before = before != nullptr && before->hi == seq;
  const bool extends_after = after != runs_.end() && after->lo == seq + 1;
  if (extends_before && extends_after) {  // seq bridges two runs
    before->hi = after->hi;
    runs_.erase(after);
  } else if (extends_before) {
    ++before->hi;
  } else if (extends_after) {
    --after->lo;
  } else {
    runs_.insert(after, Run{seq, seq + 1});
  }
  return true;
}

bool SeqSet::contains(std::uint32_t seq) const {
  if (seq < next_) return true;
  const auto after = std::upper_bound(runs_.begin(), runs_.end(), seq, starts_past);
  return after != runs_.begin() && seq < std::prev(after)->hi;
}

std::size_t SeqSet::merge(const SeqSet& other) {
  std::size_t added = 0;
  for (std::uint32_t s : other.missing_from(*this)) {
    if (insert(s)) ++added;
  }
  return added;
}

std::vector<std::uint32_t> SeqSet::missing_from(const SeqSet& other) const {
  std::vector<std::uint32_t> out;
  if (other.next_ >= limit()) return out;  // the peer's prefix covers all of this set
  auto theirs = other.runs_.begin();
  // Append [lo, hi) minus `other`. The ranges come in ascending order, so
  // `theirs` only moves forward: one merge pass over both run lists.
  const auto append_missing = [&](std::uint32_t lo, std::uint32_t hi) {
    lo = std::max(lo, other.next_);
    while (lo < hi) {
      while (theirs != other.runs_.end() && theirs->hi <= lo) ++theirs;
      const std::uint32_t gap_end = theirs == other.runs_.end() ? hi : std::min(hi, theirs->lo);
      for (; lo < gap_end; ++lo) out.push_back(lo);
      if (theirs == other.runs_.end()) break;
      lo = theirs->hi;
    }
  };
  append_missing(0, next_);
  for (const Run& run : runs_) append_missing(run.lo, run.hi);
  return out;
}

NodeId gossip_peer(std::uint64_t seed, NodeId node, std::uint64_t round, int draw, std::size_t n) {
  const std::uint64_t h = mix(seed ^ mix(static_cast<std::uint64_t>(node) ^
                                         mix(round ^ (static_cast<std::uint64_t>(draw) << 32))));
  const auto r = static_cast<NodeId>(h % (n - 1));
  return r >= node ? static_cast<NodeId>(r + 1) : r;  // skip self, stay uniform
}

bool is_home(ChunkKey key, NodeId node, int k, std::size_t n) {
  if (static_cast<std::size_t>(k) >= n) return true;
  const std::uint64_t base =
      mix((static_cast<std::uint64_t>(key.origin) << 32) ^ key.seq);
  const std::uint64_t mine = mix(base ^ node);
  int higher = 0;
  for (std::size_t other = 0; other < n; ++other) {
    if (other == node) continue;
    if (mix(base ^ other) > mine && ++higher >= k) return false;
  }
  return true;
}

}  // namespace hs::mesh
