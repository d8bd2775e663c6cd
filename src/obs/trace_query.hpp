// Query layer over a trace dump: the questions the crew actually asks.
//
// TraceIndex consumes a span list (live from a Tracer, or parsed back out
// of a CSV dump with Tracer::from_csv) and answers the three canonical
// causal queries the hs_trace CLI exposes: follow one chunk end-to-end
// (badge slice -> offload -> replicas -> ack -> read-view), reconstruct
// the critical path of one alert (sensor record -> evidence -> raise ->
// deliveries -> mesh publish), and summarize span counts/depths per
// layer. Everything here works on plain data — no seed, no live mission —
// so it runs identically on a dump written days earlier.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace hs::obs {

/// Full lineage of one chunk, every pointer into the index's span store.
/// `root` is the kChunkOffload (record chunks) or kControlPublish
/// (alerts/ballots) span; `replicas` are the pre-ack copies.
struct ChunkLineage {
  bool found = false;
  std::int64_t origin = -1;
  std::int64_t seq = -1;
  const TraceSpan* slice = nullptr;
  const TraceSpan* root = nullptr;
  std::vector<const TraceSpan*> replicas;
  const TraceSpan* ack = nullptr;
  std::vector<const TraceSpan*> reads;
  /// kAlertEvidence spans (in other traces) that cite this chunk.
  std::vector<const TraceSpan*> consumers;

  /// Durably acked with `k` storage spans (root + replicas) on record?
  [[nodiscard]] bool complete(std::size_t k) const {
    return found && ack != nullptr && 1 + replicas.size() >= k;
  }
};

/// Event chain from sensor record to delivery for one alert.
struct AlertPath {
  bool found = false;
  std::int64_t alert_index = -1;
  const TraceSpan* raised = nullptr;
  std::vector<const TraceSpan*> evidence;
  std::vector<const TraceSpan*> deliveries;
  /// Mesh publishes causally linked to the raise (dissemination edge).
  std::vector<const TraceSpan*> publishes;
  /// Lineage of each evidence chunk (where the sensor data came from).
  std::vector<ChunkLineage> sources;
};

/// The two end-to-end latency families the bench layer regression-guards
/// (bench/latency_paths): chunk offload→ack (mesh durability) and record→
/// raise (support-system detection). Sim-time seconds, so the numbers are
/// a pure function of (seed, plan) — exact across machines.
struct PathLatencies {
  /// One entry per acked chunk whose offload span is on record, in dump
  /// order: ack.start - offload.start.
  std::vector<double> offload_to_ack_s;
  /// One entry per evidenced alert, in alert-index order: raise time
  /// minus the earliest record anchor on its critical path (evidence
  /// starts, source slice/offload starts).
  std::vector<double> record_to_raise_s;
  /// record_to_raise_s[i] belongs to alert record_alert[i] — the key a
  /// sampled dump's latencies are compared against the full dump's on.
  std::vector<std::int64_t> record_alert;
};

/// Per-layer span census.
struct TraceSummary {
  std::size_t spans = 0;
  std::size_t traces = 0;
  std::size_t roots = 0;      ///< spans with no parent
  std::size_t max_depth = 0;  ///< longest parent chain (root = depth 0)
  std::array<std::size_t, 6> by_subsys{};
  std::vector<std::pair<SpanKind, std::size_t>> by_kind;  ///< enum order
  SimTime first_us = 0;
  SimTime last_us = 0;
};

/// Every lookup a query needs is built once, in the constructor (a few
/// hash and tree inserts per span), so follow_chunk and critical_path cost
/// a handful of lookups plus the spans of the traces they return, not a
/// scan of the whole dump. Results point into the index's span store.
class TraceIndex {
 public:
  explicit TraceIndex(std::vector<TraceSpan> spans);

  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] const TraceSpan* by_id(SpanId id) const;

  /// Lineage of chunk (origin, seq); found == false when no offload /
  /// publish / ack span mentions it.
  [[nodiscard]] ChunkLineage follow_chunk(std::int64_t origin, std::int64_t seq) const;
  /// The first chunk (emission order) whose ack span is on record — the
  /// CLI's `--follow-chunk auto` target.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>> first_acked_chunk() const;

  /// Critical path of the alert with index `alert_index` (the support
  /// system numbers alerts in raise order).
  [[nodiscard]] AlertPath critical_path(std::int64_t alert_index) const;
  /// Every alert index with a raise span, ascending.
  [[nodiscard]] std::vector<std::int64_t> alert_indices() const;

  [[nodiscard]] TraceSummary summarize() const;

  /// Extract both latency families from the whole dump (the readout
  /// bench/latency_paths gates and trace_sampling_test pins).
  [[nodiscard]] PathLatencies path_latencies() const;

 private:
  /// (origin, seq) of a chunk.
  using ChunkKey = std::pair<std::int64_t, std::int64_t>;

  std::vector<TraceSpan> spans_;
  std::unordered_map<SpanId, std::size_t> by_id_;
  std::unordered_map<TraceId, std::vector<std::size_t>> by_trace_;
  /// The trace of the first offload, ack or read span naming the chunk.
  std::map<ChunkKey, TraceId> chunk_trace_;
  /// The kAlertEvidence spans citing the chunk, in emission order.
  std::map<ChunkKey, std::vector<std::size_t>> evidence_;
  /// Alert index -> its first kAlertRaised span.
  std::unordered_map<std::int64_t, std::size_t> raised_;
  /// Link -> the kControlPublish spans carrying it, in emission order.
  std::unordered_map<SpanId, std::vector<std::size_t>> publishes_;
};

/// Human-readable reports (what hs_trace prints). format_alert_path
/// annotates sampled-out source chunks when a sampled dump's metadata is
/// supplied, instead of silently showing a thinner path.
[[nodiscard]] std::string format_lineage(const ChunkLineage& lineage);
[[nodiscard]] std::string format_alert_path(const AlertPath& path,
                                            const TraceMeta* meta = nullptr);
[[nodiscard]] std::string format_summary(const TraceSummary& summary);
/// Sampling/budget block for `hs_trace --summarize`: effective keep
/// threshold plus kept/dropped per kind. Empty when `meta.present` is
/// false (a pre-sampling dump).
[[nodiscard]] std::string format_trace_meta(const TraceMeta& meta);

/// `dDD hh:mm:ss` mission-clock rendering of a sim time.
[[nodiscard]] std::string format_sim_time(SimTime t);

}  // namespace hs::obs
