// Deterministic causal tracing: spans across kernel, badge, mesh, support
// and pipeline.
//
// PR 4's metrics answer "how much happened"; the flight recorder answers
// "what rare transitions happened". Neither answers causal questions —
// "what happened to chunk X end-to-end?", "which record fed this alert?"
// — which is what an autonomous habitat needs when the crew, not ground
// control, has to reconstruct a failure. hs::obs::trace fills that gap
// with the same determinism contract as the rest of the layer:
//
//  * Every trace id is a pure function of (seed, origin class, origin,
//    sequence); every span id is a pure function of (seed, emission
//    index). No wall clock, no randomness: the same (seed, fault plan)
//    produces a byte-identical trace dump at any thread count.
//  * Spans are only emitted from the single-threaded mission loop or from
//    serial index-ordered folds after a parallel_for barrier — the same
//    rule docs/CONCURRENCY.md imposes on metric updates.
//
// Two exports: canonical CSV (strict round-trip, like MetricsSnapshot)
// and Chrome trace-event JSON that loads in Perfetto / chrome://tracing.
// docs/TRACING.md has the span model and the how-to.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/recorder.hpp"
#include "util/expected.hpp"
#include "util/units.hpp"

namespace hs::obs {

/// 64-bit ids; 0 is reserved for "none" (no parent, no link, no context).
using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// What a span records. One flat enum across subsystems, like EventCode.
/// The a/b/c argument meaning per kind (comments) is part of the dump
/// contract — the trace-query layer finds chunks and alerts by scanning
/// these arguments, never by re-deriving ids from the seed.
enum class SpanKind : std::uint16_t {
  kSimEvent = 1,      ///< a = EventId, b = period (0: one-shot)
  kBadgeSlice,        ///< a = badge id, b = records in the slice
  kChunkOffload,      ///< a = origin, b = seq, c = node stored at
  kChunkReplicate,    ///< a = src node, b = dst node (pre-ack copies only)
  kChunkAck,          ///< a = origin, b = seq, c = replicas at ack
  kChunkRead,         ///< a = origin, b = seq, c = records replayed
  kControlPublish,    ///< a = node, b = ChunkKind, c = seq
  kAlertRaised,       ///< a = alert index, b = AlertKind, c = astronaut (-1: habitat)
  kAlertEvidence,     ///< a = origin, b = seq of the chunk whose vitals fed it
  kAlertDelivered,    ///< a = astronaut, b = Modality (-1: none)
  kProposalOpened,    ///< a = proposal id
  kVoteCast,          ///< a = proposal id, b = voter, c = approve (0/1)
  kProposalResolved,  ///< a = proposal id, b = ProposalState
  kFaultArmed,        ///< a = plan index, b = FaultKind
  kFaultActive,       ///< open span activation -> clear; a = plan index, b = kind
  kPipelineRun,       ///< a = run index
  kPipelineStage,     ///< a = stage index, b = shard count
  kPipelineShard,     ///< a = stage index, b = shard index
};
const char* span_kind_name(SpanKind k);

/// One traced operation on the sim timeline. `start == end` for instant
/// spans (most mission events are); kFaultActive stays open (end == -1)
/// until the recovery fires. `parent` is the lineage edge inside the same
/// trace; `link` is a cross-trace causal edge (e.g. a replicate span links
/// to the gossip-round kernel event that carried it).
struct TraceSpan {
  TraceId trace = 0;
  SpanId id = 0;
  SpanId parent = 0;
  SpanId link = 0;
  SpanKind kind = SpanKind::kSimEvent;
  Subsys subsys = Subsys::kSim;
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// Namespaces for trace-id derivation: one per kind of root cause, so a
/// chunk and an alert with the same ordinal can never collide.
enum class TraceOrigin : std::uint8_t {
  kSimEvent = 1,
  kChunk,
  kAlert,
  kProposal,
  kFault,
  kPipeline,
};

/// Per-kind accounting row, as written into the dump's `#kind` metadata
/// lines: the configured budget (0 = unlimited) and how many spans of the
/// kind were stored vs dropped (by sampling, the cap, or the budget).
struct TraceKindStats {
  SpanKind kind = SpanKind::kSimEvent;
  std::uint64_t budget = 0;
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;

  friend bool operator==(const TraceKindStats&, const TraceKindStats&) = default;
};

/// Dump-level metadata: everything `hs_trace --summarize` needs to report
/// the effective sample threshold and the per-kind kept/dropped census
/// without the live tracer in hand. Serialized as `#`-prefixed lines
/// between the CSV header and the span rows (docs/TRACING.md).
struct TraceMeta {
  /// False when the input carried no metadata lines (pre-sampling dumps).
  bool present = false;
  std::uint64_t seed = 0;
  std::uint64_t max_spans = 0;
  std::uint32_t keep_millionths = 1'000'000;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  /// Active kinds only (kept or dropped > 0), enum order.
  std::vector<TraceKindStats> kinds;

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

/// A parsed dump: metadata + spans.
struct TraceDump {
  TraceMeta meta;
  std::vector<TraceSpan> spans;
};

/// Owns every span for one run (MissionRunner owns one per mission, like
/// the Registry). Bounded three ways, all deterministic:
///
///  * Head-based sampling: when a keep threshold below 100% is set, a
///    whole trace is kept or dropped by hashing its trace id — so every
///    story (offload→replicate→ack, record→evidence→raise→deliver) stays
///    intact or vanishes atomically, and because trace ids are seed-pure
///    the sampled dump is still byte-identical across thread counts.
///  * Per-kind budgets: each SpanKind has a stored-span cap (0 =
///    unlimited) so chatty kinds (sim events, replicas) cannot starve
///    rare ones (alert and fault spans) out of the global cap. Budgets
///    are caps, not reservations.
///  * The global cap: after `max_spans` stored spans further spans are
///    counted and dropped — a span *count*, so what gets dropped is
///    itself deterministic.
class Tracer {
 public:
  static constexpr std::size_t kDefaultMaxSpans = std::size_t{1} << 20;
  /// Sampling thresholds are expressed in millionths: 1'000'000 keeps
  /// every trace, 500'000 keeps ~half of them, 0 keeps none.
  static constexpr std::uint32_t kSampleScale = 1'000'000;
  /// Number of SpanKind values (enum is dense, starting at 1).
  static constexpr std::size_t kKindCount =
      static_cast<std::size_t>(SpanKind::kPipelineShard);

  explicit Tracer(std::uint64_t seed = 0, std::size_t max_spans = kDefaultMaxSpans);

  // --- id derivation (pure; no state consulted beyond the seed) -----------
  [[nodiscard]] TraceId trace_id(TraceOrigin origin, std::uint64_t hi,
                                 std::uint64_t lo = 0) const;
  [[nodiscard]] TraceId chunk_trace(std::uint64_t origin, std::uint64_t seq) const {
    return trace_id(TraceOrigin::kChunk, origin, seq);
  }
  [[nodiscard]] TraceId alert_trace(std::uint64_t alert_index) const {
    return trace_id(TraceOrigin::kAlert, alert_index);
  }
  [[nodiscard]] TraceId proposal_trace(std::uint64_t proposal_id) const {
    return trace_id(TraceOrigin::kProposal, proposal_id);
  }
  [[nodiscard]] TraceId sim_event_trace(std::uint64_t event_id) const {
    return trace_id(TraceOrigin::kSimEvent, event_id);
  }
  [[nodiscard]] TraceId fault_trace(std::uint64_t plan_index) const {
    return trace_id(TraceOrigin::kFault, plan_index);
  }
  [[nodiscard]] TraceId pipeline_trace(std::uint64_t run_index) const {
    return trace_id(TraceOrigin::kPipeline, run_index);
  }
  /// Serial per-tracer pipeline-run ordinal (each AnalysisPipeline
  /// assembly takes one, so repeated analyses stay distinguishable).
  [[nodiscard]] std::uint64_t next_pipeline_run() { return pipeline_runs_++; }

  // --- emission (hot path) --------------------------------------------------
  /// Record a closed span. Returns its id (assigned even when the span is
  /// dropped over the cap, so id assignment never depends on the cap).
  /// When a context is pushed and `parent` is 0 or from another trace,
  /// the context becomes the span's `link` (cross-trace causality).
  SpanId emit(TraceId trace, SpanKind kind, Subsys subsys, SimTime start, SimTime end,
              SpanId parent = 0, std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0);

  /// Open a span (kFaultActive-style: the end instant is not known yet).
  SpanId begin(TraceId trace, SpanKind kind, Subsys subsys, SimTime start, SpanId parent = 0,
               std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0);

  /// Close a span opened with begin(). Unknown/dropped ids are a no-op.
  void close(SpanId id, SimTime end);

  // --- causal context (a stack; the kernel pushes around each callback) ----
  void push_context(SpanId id) { context_.push_back(id); }
  void pop_context() {
    if (!context_.empty()) context_.pop_back();
  }
  [[nodiscard]] SpanId context() const { return context_.empty() ? 0 : context_.back(); }

  // --- sampling and per-kind budgets ---------------------------------------
  /// Set the head-based keep threshold (in millionths; >= kSampleScale
  /// keeps everything). Must be set before emission starts — the decision
  /// is per trace id, so flipping it mid-run would split stories.
  void set_sampling(std::uint32_t keep_millionths) { keep_millionths_ = keep_millionths; }
  [[nodiscard]] std::uint32_t keep_millionths() const { return keep_millionths_; }
  /// The seed-pure keep/drop decision for one trace id: keep iff
  /// `mix64(trace ^ salt) % kSampleScale < keep_millionths`. Pure — the
  /// CLI uses it to tell "sampled out" from "never raised".
  [[nodiscard]] bool sampled_in(TraceId trace) const;

  /// Per-kind stored-span cap; 0 = unlimited. The constructor installs
  /// scaled defaults (default_kind_budget) — finite only for chatty kinds.
  void set_kind_budget(SpanKind kind, std::uint64_t budget) {
    kind_budget_[kind_index(kind)] = budget;
  }
  [[nodiscard]] std::uint64_t kind_budget(SpanKind kind) const {
    return kind_budget_[kind_index(kind)];
  }
  [[nodiscard]] std::uint64_t kind_kept(SpanKind kind) const {
    return kind_kept_[kind_index(kind)];
  }
  [[nodiscard]] std::uint64_t kind_dropped(SpanKind kind) const {
    return kind_dropped_[kind_index(kind)];
  }
  /// The default budget for `kind` under a global cap of `max_spans`:
  /// max_spans/2 for the chatty mission kinds (sim events, slices, chunk
  /// traffic), max_spans/4 and /8 for pipeline shards/stages, unlimited
  /// (0) for the rare kinds a crew debugs from (alerts, faults,
  /// proposals, pipeline roots).
  [[nodiscard]] static std::uint64_t default_kind_budget(SpanKind kind, std::size_t max_spans);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t total_emitted() const { return emitted_; }
  /// Spans lost to sampling, budgets, or the cap (emitted - stored);
  /// always equal to the sum of kind_dropped() over all kinds.
  [[nodiscard]] std::uint64_t dropped_count() const { return emitted_ - spans_.size(); }
  [[nodiscard]] std::size_t max_spans() const { return max_spans_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Live metadata (what to_csv() writes into the `#` lines).
  [[nodiscard]] TraceMeta meta() const;
  /// Full drop accounting into a registry: bumps
  /// `hs.obs.trace_dropped_total` (registered eagerly) on every drop plus
  /// a lazily-registered `hs.obs.trace_dropped.<kind>` counter per kind
  /// that actually drops. Null detaches both. The registry must outlive
  /// the tracer. Drops are deterministic, so lazy registration is too.
  void set_drop_metrics(Registry* registry);

  // --- export --------------------------------------------------------------
  /// CSV dump: the header, then `#tracer` / `#sampling` / `#kind`
  /// metadata lines (meta()), then one
  /// `trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c` row per
  /// span, ids as 16-digit lowercase hex, in emission order. Pure
  /// function of (seed, plan); the determinism tests diff it directly.
  [[nodiscard]] std::string to_csv() const;
  /// Strict inverse of to_csv(): exact header, exact field counts, every
  /// value parseable; the first malformed line aborts with its number.
  /// Metadata lines are optional (pre-sampling dumps parse fine) but when
  /// present must be well-formed and precede every span row.
  static Expected<TraceDump> parse_dump(const std::string& text);

 private:
  static std::size_t kind_index(SpanKind kind) { return static_cast<std::size_t>(kind) - 1; }

  [[nodiscard]] SpanId next_span_id();
  /// Would a span of `kind` in `trace` be stored right now?
  [[nodiscard]] bool admits(TraceId trace, SpanKind kind) const;
  /// Account one dropped span (cold path: bumps the registry counters).
  void note_drop(SpanKind kind);

  std::uint64_t seed_;
  std::uint64_t span_salt_;
  std::size_t max_spans_;
  std::uint32_t keep_millionths_ = kSampleScale;
  std::uint64_t emitted_ = 0;
  std::uint64_t pipeline_runs_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<SpanId> context_;
  std::unordered_map<SpanId, std::size_t> open_;  ///< begin()-ed, not yet closed
  std::array<std::uint64_t, kKindCount> kind_budget_{};
  std::array<std::uint64_t, kKindCount> kind_kept_{};
  std::array<std::uint64_t, kKindCount> kind_dropped_{};
  Counter* dropped_counter_ = nullptr;
  Registry* drop_registry_ = nullptr;
  std::array<Counter*, kKindCount> kind_counters_{};  ///< lazy per-kind drop counters
};

/// Chrome trace-event JSON ("traceEvents" of ph:"X" complete events in
/// sim-µs, one process row per subsystem), loadable in Perfetto and
/// chrome://tracing: what hs_trace's --export-perfetto writes, for live
/// spans (Tracer::spans()) and parsed dumps alike.
[[nodiscard]] std::string spans_to_chrome_json(const std::vector<TraceSpan>& spans);

}  // namespace hs::obs
