// End-to-end lineage contract of the causal trace, on the canonical
// partitioned-mesh mission (FaultPlan::mesh_partition(), 7 days, seed 42):
// every chunk the mesh acked at replication_factor k must show exactly k
// storage spans in the trace — one kChunkOffload root plus k-1
// kChunkReplicate copies with the offload as ancestor — and a kChunkAck.
//
// This is the pre-ack replication policy made testable: copies that made
// the chunk durable are traced; post-ack anti-entropy traffic is counted
// in mesh.chunks_replicated but never spans. The test works on the parsed
// CSV dump (not the live tracer) so it also pins the round-trip.
//
// Registered under the `obs` and `mesh` ctest labels.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "faults/fault_plan.hpp"
#include "mesh/mesh.hpp"
#include "obs/trace.hpp"
#include "obs/trace_query.hpp"

namespace hs::core {
namespace {

TEST(TraceLineage, EveryAckedChunkHasExactlyKStorageSpans) {
  MissionConfig config;
  config.seed = 42;
  config.mesh.enabled = true;
  config.collect_from_mesh = true;
  config.fault_plan = faults::FaultPlan::mesh_partition();
  const std::size_t k = static_cast<std::size_t>(config.mesh.replication_factor);

  MissionRunner runner(config);
  (void)runner.run_days(7);
  const auto* mesh = runner.mesh();
  ASSERT_NE(mesh, nullptr);
  const auto acked = mesh->acked_keys();
  ASSERT_FALSE(acked.empty());

  // Work on the dump as an operator would: parse the CSV back.
  auto parsed = obs::Tracer::parse_dump(runner.tracer().to_csv());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const obs::TraceIndex index(std::move(parsed->spans));

  // Walk the parent chain; true when `root` is an ancestor of `span`.
  const auto has_ancestor = [&index](const obs::TraceSpan* span, obs::SpanId root) {
    for (obs::SpanId p = span->parent; p != 0;) {
      if (p == root) return true;
      const obs::TraceSpan* up = index.by_id(p);
      if (up == nullptr) return false;
      p = up->parent;
    }
    return false;
  };

  std::size_t checked = 0;
  for (const auto& key : acked) {
    const auto origin = static_cast<std::int64_t>(key.origin);
    const auto seq = static_cast<std::int64_t>(key.seq);
    const obs::ChunkLineage lineage = index.follow_chunk(origin, seq);
    ASSERT_TRUE(lineage.found) << "chunk " << origin << ":" << seq;
    ASSERT_NE(lineage.root, nullptr) << "chunk " << origin << ":" << seq;
    EXPECT_EQ(lineage.root->kind, obs::SpanKind::kChunkOffload);
    ASSERT_NE(lineage.ack, nullptr) << "chunk " << origin << ":" << seq;
    // Exactly k storage spans: the offload root plus k-1 pre-ack copies.
    EXPECT_EQ(1 + lineage.replicas.size(), k) << "chunk " << origin << ":" << seq;
    EXPECT_TRUE(lineage.complete(k)) << "chunk " << origin << ":" << seq;
    for (const obs::TraceSpan* replica : lineage.replicas) {
      EXPECT_TRUE(has_ancestor(replica, lineage.root->id))
          << "chunk " << origin << ":" << seq << " replica copy " << replica->a << " -> "
          << replica->b;
      EXPECT_LE(replica->start, lineage.ack->start) << "post-ack copy traced as storage";
    }
    // The ack records the replica count it saw.
    EXPECT_EQ(static_cast<std::size_t>(lineage.ack->c), k);
    EXPECT_GE(lineage.ack->start, lineage.root->start);
    ++checked;
  }
  EXPECT_EQ(checked, acked.size());

  // The read view replays every acked chunk at collection time, and each
  // read span hangs off the chunk's offload root.
  const obs::ChunkLineage first = index.follow_chunk(
      static_cast<std::int64_t>(acked.begin()->origin),
      static_cast<std::int64_t>(acked.begin()->seq));
  ASSERT_FALSE(first.reads.empty());
  EXPECT_EQ(first.reads.front()->parent, first.root->id);
}

}  // namespace
}  // namespace hs::core
