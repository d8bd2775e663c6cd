// Gossip anti-entropy primitives: version vectors and peer selection.
//
// Convergence is driven by periodic push–pull exchanges. Each node keeps,
// per origin, the set of chunk sequence numbers it holds as a SeqSet — a
// contiguous prefix [0, next) plus out-of-order extras, which arise when a
// roaming badge offloads consecutive chunks to different nodes, or for
// good after a storm wipes a chunk's only replica (a sequence hole: every
// later chunk of that badge stays an extra). Extras are kept as sorted
// runs, so two SeqSets diff in O(runs + missing), and an exchange at
// steady state costs O(origins), not O(store).
//
// Peer choice is a pure function of (seed, node id, round, draw) — never
// of thread schedule, fault state or store contents — so a mission with a
// mesh is exactly as reproducible as one without (docs/CONCURRENCY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "mesh/chunk.hpp"

namespace hs::mesh {

/// The set of sequence numbers a node holds for one origin: the dense
/// prefix [0, next) plus out-of-order extras >= next. The extras are
/// stored as sorted, disjoint, non-adjacent runs [lo, hi) whose first run
/// starts past next, plus their total count, so the representation of a
/// set is unique and == is set equality. Sequence numbers stay below
/// 2^32 - 1 (a run's hi is one past its last value).
class SeqSet {
 public:
  /// One run of consecutive extras, [lo, hi).
  struct Run {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };

  /// The extras as an ascending sequence of values, read off the runs.
  class Extras {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = std::uint32_t;
      using difference_type = std::ptrdiff_t;
      using pointer = const std::uint32_t*;
      using reference = std::uint32_t;

      iterator(const Run* run, const Run* end)
          : run_(run), end_(end), value_(run == end ? 0 : run->lo) {}
      std::uint32_t operator*() const { return value_; }
      iterator& operator++() {
        if (++value_ == run_->hi && ++run_ != end_) value_ = run_->lo;
        if (run_ == end_) value_ = 0;
        return *this;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      const Run* run_ = nullptr;
      const Run* end_ = nullptr;
      std::uint32_t value_ = 0;
    };

    Extras(const std::vector<Run>& runs, std::size_t count) : runs_(&runs), count_(count) {}
    [[nodiscard]] iterator begin() const { return {runs_->data(), runs_->data() + runs_->size()}; }
    [[nodiscard]] iterator end() const {
      const Run* last = runs_->data() + runs_->size();
      return {last, last};
    }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

   private:
    const std::vector<Run>* runs_;
    std::size_t count_;
  };

  /// Insert a sequence number; returns false if already present.
  bool insert(std::uint32_t seq);
  [[nodiscard]] bool contains(std::uint32_t seq) const;
  [[nodiscard]] std::uint32_t next() const { return next_; }
  [[nodiscard]] Extras extras() const { return {runs_, extra_count_}; }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  [[nodiscard]] std::size_t size() const { return next_ + extra_count_; }
  /// Digest wire size: next (4 bytes) + each extra (4 bytes). The wire
  /// format lists extras one by one; runs are only how a node stores them.
  [[nodiscard]] std::size_t digest_bytes() const { return 4 + 4 * extra_count_; }

  /// Sequence numbers present here but missing from `other`, ascending.
  /// One merge pass over both run lists; empty at once when `other`'s
  /// prefix already covers this whole set.
  [[nodiscard]] std::vector<std::uint32_t> missing_from(const SeqSet& other) const;

  /// Union `other` into this set. Returns the number of sequence numbers
  /// newly added. Merge is commutative, associative and idempotent (it is
  /// a set union), which is what lets gossip converge in any exchange
  /// order — tests/seqset_property_test.cpp checks all three.
  std::size_t merge(const SeqSet& other);

  friend bool operator==(const SeqSet&, const SeqSet&) = default;

 private:
  /// One past the largest value held (next when there are no extras).
  [[nodiscard]] std::uint32_t limit() const { return runs_.empty() ? next_ : runs_.back().hi; }

  std::uint32_t next_ = 0;
  std::vector<Run> runs_;
  std::size_t extra_count_ = 0;
};

/// Per-node version vector: (origin, held sequence set) pairs, sorted by
/// origin.
using VersionVector = std::vector<std::pair<OriginId, SeqSet>>;

/// The peer node `node` gossips with on (round, draw), among `n` nodes.
/// Pure function of its arguments; uniform over the other n-1 nodes.
NodeId gossip_peer(std::uint64_t seed, NodeId node, std::uint64_t round, int draw, std::size_t n);

/// Whether `node` is one of the `k` rendezvous-placement homes for a
/// record chunk key among `n` nodes (highest-random-weight hashing, so
/// home sets are stable, uniform, and need no coordination). Control
/// items replicate everywhere and bypass this.
bool is_home(ChunkKey key, NodeId node, int k, std::size_t n);

/// Transfer/byte accounting for the whole mesh, kept by MeshNetwork.
struct GossipStats {
  std::uint64_t rounds = 0;
  std::uint64_t exchanges = 0;          ///< completed push-pull pairings
  std::uint64_t skipped_links = 0;      ///< peer down or partitioned
  std::uint64_t chunks_replicated = 0;  ///< node-to-node chunk copies
  std::int64_t digest_bytes = 0;        ///< version-vector exchange traffic
  std::int64_t replication_bytes = 0;   ///< node-to-node chunk traffic
  std::int64_t offload_bytes = 0;       ///< badge-to-node first-hop traffic
  std::uint64_t offloads = 0;           ///< chunks accepted from badges
  std::uint64_t offload_deferrals = 0;  ///< offload attempts with no reachable node
};

}  // namespace hs::mesh
