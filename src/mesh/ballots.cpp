#include "mesh/ballots.hpp"

#include <algorithm>
#include <map>

namespace hs::mesh {

std::vector<BallotTally> tally_ballots(const std::map<ChunkKey, const MeshChunk*>& store,
                                       SimTime now) {
  std::map<std::uint64_t, ProposalItem> proposals;
  struct OrderedVote {
    VoteItem vote;
    ChunkKey key;
  };
  std::vector<OrderedVote> votes;

  for (const auto& [key, chunk] : store) {
    if (chunk->payload == nullptr) continue;
    if (chunk->kind == ChunkKind::kProposal) {
      ProposalItem item;
      if (decode_proposal(chunk->payload->bytes, item)) proposals.emplace(item.id, std::move(item));
    } else if (chunk->kind == ChunkKind::kVote) {
      VoteItem vote;
      if (decode_vote(chunk->payload->bytes, vote)) votes.push_back({vote, key});
    }
  }

  // Replay order must be identical on every node holding the same chunks:
  // cast time first (the semantic order), chunk key as the tie-break.
  std::sort(votes.begin(), votes.end(), [](const OrderedVote& a, const OrderedVote& b) {
    if (a.vote.cast_at != b.vote.cast_at) return a.vote.cast_at < b.vote.cast_at;
    return a.key < b.key;
  });

  std::vector<BallotTally> tallies;
  tallies.reserve(proposals.size());
  for (const auto& [id, item] : proposals) {
    support::ChangeProposal proposal(id, item.description, item.roster, item.proposed_at,
                                     item.ttl);
    for (const auto& [vote, key] : votes) {
      (void)key;
      if (vote.proposal != id) continue;
      proposal.vote(vote.cast_at, vote.voter, vote.approve);
    }
    proposal.tick(now);
    tallies.push_back({item, proposal.state(), proposal.approvals(), proposal.votes_cast()});
  }
  return tallies;
}

std::vector<BallotTally> tally_ballots_at(const MeshNetwork& mesh, NodeId node, SimTime now) {
  std::map<ChunkKey, const MeshChunk*> store;
  mesh.nodes().at(node).for_each_chunk([&store](const MeshChunk& chunk) {
    store.emplace_hint(store.end(), chunk.key, &chunk);  // (origin, seq) order
  });
  return tally_ballots(store, now);
}

}  // namespace hs::mesh
