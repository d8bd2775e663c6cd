// Property-style tests for mesh::SeqSet, the version-vector primitive
// gossip convergence rests on. A SeqSet is semantically a set of u32s
// (stored as a dense prefix plus runs of extras); merge() is set union.
// Convergence in any exchange order requires union's algebra — commutative,
// associative, idempotent — so this suite drives randomized insert/merge
// sequences against a std::set reference model and checks those laws
// directly, across seeds, rather than hand-picking cases. Long sparse
// sequences check the run form itself: every way an insert can change the
// runs, digest sizes and missing_from in both directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "mesh/gossip.hpp"
#include "util/rng.hpp"

namespace hs::mesh {
namespace {

/// Everything a SeqSet claims to hold, via the public API.
std::set<std::uint32_t> materialize(const SeqSet& s) {
  std::set<std::uint32_t> out;
  for (std::uint32_t v = 0; v < s.next(); ++v) out.insert(v);
  out.insert(s.extras().begin(), s.extras().end());
  return out;
}

/// Random SeqSet + the reference model it must agree with. Sequence
/// numbers are drawn from a small range so prefix absorption (inserting
/// the value that closes a gap) happens often.
std::pair<SeqSet, std::set<std::uint32_t>> random_set(Rng& rng, int inserts, int range) {
  SeqSet s;
  std::set<std::uint32_t> model;
  for (int i = 0; i < inserts; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, range - 1));
    const bool fresh = model.insert(v).second;
    EXPECT_EQ(s.insert(v), fresh) << "insert(" << v << ") disagreed with the model";
  }
  return {s, model};
}

SeqSet random_seqset(Rng& rng, int inserts, int range) {
  return random_set(rng, inserts, range).first;
}

/// The order a long SeqSet fills in under gossip: sequence numbers over
/// [0, range) arrive mostly ascending; a share `lost` never arrives (a
/// hole), and a share `late` arrives at a random point of the stream.
std::vector<std::uint32_t> gossip_order(Rng& rng, std::uint32_t range, double lost, double late) {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> stragglers;
  for (std::uint32_t v = 0; v < range; ++v) {
    const double u = rng.uniform();
    if (u < lost) continue;
    (u < lost + late ? stragglers : order).push_back(v);
  }
  for (const std::uint32_t v : stragglers) {
    const auto at = rng.uniform_int(0, static_cast<std::int64_t>(order.size()));
    order.insert(order.begin() + at, v);
  }
  return order;
}

/// Everything the run form promises against the model: membership,
/// the extras in order, the digest size and the run invariants.
void expect_agrees(const SeqSet& s, const std::set<std::uint32_t>& model, std::uint32_t range) {
  for (std::uint32_t v = 0; v < range + 4; ++v) {
    ASSERT_EQ(s.contains(v), model.count(v) > 0) << "value " << v;
  }
  const std::vector<std::uint32_t> want(model.lower_bound(s.next()), model.end());
  const std::vector<std::uint32_t> extras(s.extras().begin(), s.extras().end());
  EXPECT_EQ(extras, want);
  EXPECT_EQ(s.extras().size(), want.size());
  EXPECT_EQ(s.digest_bytes(), 4 + 4 * want.size());
  EXPECT_EQ(s.size(), model.size());
  // Runs are sorted, disjoint and never adjacent, and the first starts
  // past the prefix (else it would have been absorbed).
  std::uint32_t prev_hi = s.next();
  for (const SeqSet::Run& run : s.runs()) {
    EXPECT_GT(run.lo, prev_hi);
    EXPECT_LT(run.lo, run.hi);
    prev_hi = run.hi;
  }
}

TEST(SeqSetPropertyTest, RandomInsertsMatchReferenceModel) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 1234ULL, 0xdeadULL}) {
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      auto [s, model] = random_set(rng, 120, 80);
      EXPECT_EQ(materialize(s), model) << "seed " << seed << " round " << round;
      EXPECT_EQ(s.size(), model.size());
      for (std::uint32_t v = 0; v < 90; ++v) {
        EXPECT_EQ(s.contains(v), model.count(v) > 0) << "seed " << seed << " value " << v;
      }
      // The dense prefix is maximal: next() is the first absent value.
      EXPECT_FALSE(s.contains(s.next()));
      // Extras all sit past the prefix (the representation invariant).
      for (const std::uint32_t e : s.extras()) EXPECT_GE(e, s.next());
    }
  }
}

TEST(SeqSetPropertyTest, MergeMatchesSetUnion) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 99ULL}) {
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      auto [a, ma] = random_set(rng, 60, 64);
      auto [b, mb] = random_set(rng, 60, 64);

      std::set<std::uint32_t> expect = ma;
      expect.insert(mb.begin(), mb.end());

      SeqSet merged = a;
      const std::size_t added = merged.merge(b);
      EXPECT_EQ(materialize(merged), expect);
      EXPECT_EQ(added, expect.size() - ma.size());
    }
  }
}

TEST(SeqSetPropertyTest, MergeIsCommutative) {
  Rng rng(42);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 50, 48);
    const SeqSet b = random_seqset(rng, 50, 48);
    SeqSet ab = a;
    ab.merge(b);
    SeqSet ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba) << "round " << round;
  }
}

TEST(SeqSetPropertyTest, MergeIsAssociative) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 40, 40);
    const SeqSet b = random_seqset(rng, 40, 40);
    const SeqSet c = random_seqset(rng, 40, 40);
    SeqSet left = a;  // (a ∪ b) ∪ c
    left.merge(b);
    left.merge(c);
    SeqSet bc = b;  // a ∪ (b ∪ c)
    bc.merge(c);
    SeqSet right = a;
    right.merge(bc);
    EXPECT_EQ(left, right) << "round " << round;
  }
}

TEST(SeqSetPropertyTest, MergeIsIdempotent) {
  Rng rng(1234);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 60, 56);
    SeqSet twice = a;
    EXPECT_EQ(twice.merge(a), 0U) << "self-merge must add nothing";
    EXPECT_EQ(twice, a);
    const SeqSet b = random_seqset(rng, 60, 56);
    SeqSet once = a;
    once.merge(b);
    SeqSet again = once;
    EXPECT_EQ(again.merge(b), 0U) << "re-merging the same set must add nothing";
    EXPECT_EQ(again, once);
  }
}

TEST(SeqSetPropertyTest, MergeAgreesWithMissingFrom) {
  // merge() is defined in terms of missing_from(); check the other
  // direction too: after a merge, nothing is missing either way between
  // the merged set and the union's other operand.
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const SeqSet a = random_seqset(rng, 50, 48);
    const SeqSet b = random_seqset(rng, 50, 48);
    SeqSet merged = a;
    merged.merge(b);
    EXPECT_TRUE(b.missing_from(merged).empty());
    EXPECT_TRUE(a.missing_from(merged).empty());
  }
}

TEST(SeqSetPropertyTest, LongSparseSequencesMatchModel) {
  // Every way an insert reshapes the runs must happen, or the suite
  // proves nothing about the run form.
  std::size_t new_runs = 0;
  std::size_t extended = 0;
  std::size_t bridged = 0;
  std::size_t absorbed = 0;
  for (const std::uint64_t seed : {3ULL, 42ULL, 1009ULL, 2026ULL}) {
    Rng rng(seed);
    for (const double lost : {0.002, 0.02, 0.2}) {
      constexpr std::uint32_t kRange = 3000;
      SeqSet s;
      std::set<std::uint32_t> model;
      const auto order = gossip_order(rng, kRange, lost, 0.05);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t v = order[i];
        const std::uint32_t next_before = s.next();
        const std::size_t runs_before = s.runs().size();
        ASSERT_TRUE(s.insert(v));
        ASSERT_FALSE(s.insert(v));
        model.insert(v);
        if (v == next_before) {
          absorbed += s.runs().size() < runs_before ? 1 : 0;
        } else if (s.runs().size() > runs_before) {
          ++new_runs;
        } else if (s.runs().size() < runs_before) {
          ++bridged;
        } else {
          ++extended;
        }
        if (i % 500 == 0) expect_agrees(s, model, kRange);
      }
      expect_agrees(s, model, kRange);
    }
  }
  EXPECT_GT(new_runs, 0u);
  EXPECT_GT(extended, 0u);
  EXPECT_GT(bridged, 0u);
  EXPECT_GT(absorbed, 0u);
}

TEST(SeqSetPropertyTest, MissingFromIsSetDifferenceBothWays) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 1009ULL}) {
    Rng rng(seed);
    for (int round = 0; round < 40; ++round) {
      // Two nodes that saw different prefixes of two gossip streams over
      // the same range, so their prefixes, runs and holes interleave.
      const std::uint32_t range = static_cast<std::uint32_t>(rng.uniform_int(1, 2000));
      const auto order_a = gossip_order(rng, range, 0.05, 0.1);
      const auto order_b = gossip_order(rng, range, 0.05, 0.1);
      SeqSet a;
      SeqSet b;
      std::set<std::uint32_t> ma;
      std::set<std::uint32_t> mb;
      const auto cut_a = static_cast<std::size_t>(rng.uniform_int(0, order_a.size()));
      const auto cut_b = static_cast<std::size_t>(rng.uniform_int(0, order_b.size()));
      for (std::size_t i = 0; i < cut_a; ++i) a.insert(order_a[i]), ma.insert(order_a[i]);
      for (std::size_t i = 0; i < cut_b; ++i) b.insert(order_b[i]), mb.insert(order_b[i]);

      std::vector<std::uint32_t> a_minus_b;
      std::set_difference(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::back_inserter(a_minus_b));
      std::vector<std::uint32_t> b_minus_a;
      std::set_difference(mb.begin(), mb.end(), ma.begin(), ma.end(),
                          std::back_inserter(b_minus_a));
      EXPECT_EQ(a.missing_from(b), a_minus_b) << "seed " << seed << " round " << round;
      EXPECT_EQ(b.missing_from(a), b_minus_a) << "seed " << seed << " round " << round;
      EXPECT_TRUE(a.missing_from(a).empty());
    }
  }
}

}  // namespace
}  // namespace hs::mesh
