#include "obs/trace_query.hpp"

#include <algorithm>
#include <cstdio>

namespace hs::obs {
namespace {

std::string hex_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

void line(std::string& out, int indent, const std::string& text) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  out += text;
  out += '\n';
}

std::string span_stamp(const TraceSpan& s) {
  std::string out = format_sim_time(s.start);
  out += "  ";
  out += span_kind_name(s.kind);
  out += " [";
  out += subsys_name(s.subsys);
  out += "]";
  return out;
}

}  // namespace

std::string format_sim_time(SimTime t) {
  if (t < 0) return "(open)";
  const int day = mission_day(t);
  const SimTime rem = t - day_start(day);
  const auto secs = rem / kSecond;
  char buf[32];
  std::snprintf(buf, sizeof buf, "d%02d %02lld:%02lld:%02lld", day,
                static_cast<long long>(secs / 3600), static_cast<long long>((secs / 60) % 60),
                static_cast<long long>(secs % 60));
  return buf;
}

TraceIndex::TraceIndex(std::vector<TraceSpan> spans) : spans_(std::move(spans)) {
  by_id_.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    by_id_.emplace(s.id, i);
    by_trace_[s.trace].push_back(i);
    switch (s.kind) {
      case SpanKind::kChunkOffload:
      case SpanKind::kChunkAck:
      case SpanKind::kChunkRead:
        chunk_trace_.try_emplace(ChunkKey{s.a, s.b}, s.trace);
        break;
      case SpanKind::kAlertEvidence:
        evidence_[ChunkKey{s.a, s.b}].push_back(i);
        break;
      case SpanKind::kAlertRaised:
        raised_.try_emplace(s.a, i);
        break;
      case SpanKind::kControlPublish:
        publishes_[s.link].push_back(i);
        break;
      default:
        break;
    }
  }
}

const TraceSpan* TraceIndex::by_id(SpanId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &spans_[it->second];
}

ChunkLineage TraceIndex::follow_chunk(std::int64_t origin, std::int64_t seq) const {
  ChunkLineage out;
  out.origin = origin;
  out.seq = seq;

  // Locate the chunk's trace through the first span that names it: the
  // offload (record chunks) or the ack. Control chunks have no offload
  // span, so the ack (or any reader) is the way in.
  const auto key = chunk_trace_.find(ChunkKey{origin, seq});
  if (key == chunk_trace_.end() || key->second == 0) return out;
  const auto it = by_trace_.find(key->second);
  if (it == by_trace_.end()) return out;

  out.found = true;
  for (const std::size_t idx : it->second) {
    const TraceSpan& s = spans_[idx];
    switch (s.kind) {
      case SpanKind::kBadgeSlice:
        out.slice = &s;
        break;
      case SpanKind::kChunkOffload:
      case SpanKind::kControlPublish:
        out.root = &s;
        break;
      case SpanKind::kChunkReplicate:
        out.replicas.push_back(&s);
        break;
      case SpanKind::kChunkAck:
        out.ack = &s;
        break;
      case SpanKind::kChunkRead:
        out.reads.push_back(&s);
        break;
      default:
        break;
    }
  }
  if (const auto ev = evidence_.find(ChunkKey{origin, seq}); ev != evidence_.end()) {
    for (const std::size_t idx : ev->second) out.consumers.push_back(&spans_[idx]);
  }
  return out;
}

std::optional<std::pair<std::int64_t, std::int64_t>> TraceIndex::first_acked_chunk() const {
  for (const TraceSpan& s : spans_) {
    if (s.kind == SpanKind::kChunkAck) return std::pair{s.a, s.b};
  }
  return std::nullopt;
}

AlertPath TraceIndex::critical_path(std::int64_t alert_index) const {
  AlertPath out;
  out.alert_index = alert_index;
  const auto first_raise = raised_.find(alert_index);
  if (first_raise == raised_.end()) return out;
  const TraceSpan* raised = &spans_[first_raise->second];
  out.found = true;
  out.raised = raised;

  const auto it = by_trace_.find(raised->trace);
  if (it != by_trace_.end()) {
    for (const std::size_t idx : it->second) {
      const TraceSpan& s = spans_[idx];
      if (s.kind == SpanKind::kAlertEvidence) out.evidence.push_back(&s);
      if (s.kind == SpanKind::kAlertDelivered) out.deliveries.push_back(&s);
    }
  }
  // The mesh publish rides the raise's causal context (link), landing in
  // the chunk's own trace — follow the cross-trace edge.
  if (const auto pub = publishes_.find(raised->id); pub != publishes_.end()) {
    for (const std::size_t idx : pub->second) out.publishes.push_back(&spans_[idx]);
  }
  for (const TraceSpan* ev : out.evidence) {
    out.sources.push_back(follow_chunk(ev->a, ev->b));
  }
  return out;
}

PathLatencies TraceIndex::path_latencies() const {
  PathLatencies out;
  for (const TraceSpan& s : spans_) {
    if (s.kind != SpanKind::kChunkAck) continue;
    const auto it = by_trace_.find(s.trace);
    if (it == by_trace_.end()) continue;
    for (const std::size_t idx : it->second) {
      if (spans_[idx].kind == SpanKind::kChunkOffload) {
        out.offload_to_ack_s.push_back(static_cast<double>(s.start - spans_[idx].start) /
                                       static_cast<double>(kSecond));
        break;
      }
    }
  }
  for (const std::int64_t alert : alert_indices()) {
    const AlertPath path = critical_path(alert);
    if (!path.found || path.raised == nullptr || path.evidence.empty()) continue;
    SimTime earliest = path.raised->start;
    // The evidence span starts at the record time, so the anchor survives
    // even when the source chunk's own trace was sampled out; when the
    // chunk is on record its slice/offload starts agree.
    for (const TraceSpan* span : path.evidence) earliest = std::min(earliest, span->start);
    for (const ChunkLineage& source : path.sources) {
      if (source.slice != nullptr) earliest = std::min(earliest, source.slice->start);
      if (source.root != nullptr) earliest = std::min(earliest, source.root->start);
    }
    out.record_to_raise_s.push_back(static_cast<double>(path.raised->start - earliest) /
                                    static_cast<double>(kSecond));
    out.record_alert.push_back(alert);
  }
  return out;
}

std::vector<std::int64_t> TraceIndex::alert_indices() const {
  std::vector<std::int64_t> out;
  for (const TraceSpan& s : spans_) {
    if (s.kind == SpanKind::kAlertRaised) out.push_back(s.a);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TraceSummary TraceIndex::summarize() const {
  TraceSummary out;
  out.spans = spans_.size();
  out.traces = by_trace_.size();

  std::vector<std::size_t> kind_counts;
  std::vector<int> depth(spans_.size(), -1);
  bool first_time = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    const auto sub = static_cast<std::size_t>(s.subsys);
    if (sub < out.by_subsys.size()) ++out.by_subsys[sub];
    const auto kind = static_cast<std::size_t>(s.kind);
    if (kind_counts.size() <= kind) kind_counts.resize(kind + 1, 0);
    ++kind_counts[kind];
    if (s.parent == 0) ++out.roots;
    if (s.start >= 0) {
      if (first_time || s.start < out.first_us) out.first_us = s.start;
      if (first_time || s.end > out.last_us) out.last_us = std::max(s.start, s.end);
      first_time = false;
    }

    // Depth = length of the parent chain; memoized, cycles impossible by
    // construction (parents are always earlier emissions) but the walk is
    // bounded anyway for robustness against hand-edited dumps.
    std::size_t cursor = i;
    std::vector<std::size_t> chain;
    while (depth[cursor] < 0) {
      chain.push_back(cursor);
      const auto pit = spans_[cursor].parent == 0
                           ? by_id_.end()
                           : by_id_.find(spans_[cursor].parent);
      if (pit == by_id_.end() || chain.size() > spans_.size()) {
        depth[cursor] = 0;
        break;
      }
      cursor = pit->second;
    }
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
      if (depth[*rit] < 0) depth[*rit] = depth[cursor] + 1;
      cursor = *rit;
    }
    out.max_depth = std::max(out.max_depth, static_cast<std::size_t>(depth[i]));
  }
  for (std::size_t k = 0; k < kind_counts.size(); ++k) {
    if (kind_counts[k] > 0) out.by_kind.emplace_back(static_cast<SpanKind>(k), kind_counts[k]);
  }
  return out;
}

std::string format_lineage(const ChunkLineage& lineage) {
  std::string out = "chunk " + std::to_string(lineage.origin) + ":" + std::to_string(lineage.seq);
  if (!lineage.found) {
    out += ": no trace on record\n";
    return out;
  }
  out += "  (trace ";
  out += lineage.root != nullptr ? hex_id(lineage.root->trace)
                                 : (lineage.ack != nullptr ? hex_id(lineage.ack->trace) : "?");
  out += ")\n";
  if (lineage.slice != nullptr) {
    line(out, 1, span_stamp(*lineage.slice) + "  badge " + std::to_string(lineage.slice->a) +
                     ", " + std::to_string(lineage.slice->b) + " records");
  }
  if (lineage.root != nullptr) {
    std::string detail = span_stamp(*lineage.root);
    if (lineage.root->kind == SpanKind::kChunkOffload) {
      detail += "  -> node " + std::to_string(lineage.root->c);
    } else {
      detail += "  at node " + std::to_string(lineage.root->a);
    }
    line(out, 1, detail);
  }
  for (const TraceSpan* r : lineage.replicas) {
    line(out, 2, span_stamp(*r) + "  node " + std::to_string(r->a) + " -> node " +
                     std::to_string(r->b));
  }
  if (lineage.ack != nullptr) {
    line(out, 2, span_stamp(*lineage.ack) + "  durable at " + std::to_string(lineage.ack->c) +
                     " replicas");
  } else {
    line(out, 2, "(never reached replication_factor)");
  }
  for (const TraceSpan* r : lineage.reads) {
    line(out, 1, span_stamp(*r) + "  " + std::to_string(r->c) + " records into read view");
  }
  for (const TraceSpan* c : lineage.consumers) {
    line(out, 1, span_stamp(*c) + "  cited as alert evidence");
  }
  return out;
}

std::string format_alert_path(const AlertPath& path, const TraceMeta* meta) {
  const bool sampled =
      meta != nullptr && meta->present && meta->keep_millionths < 1'000'000U;
  std::string out = "alert " + std::to_string(path.alert_index);
  if (!path.found) {
    out += ": no raise span on record\n";
    return out;
  }
  out += "  (trace " + hex_id(path.raised->trace) + ")\n";
  for (const ChunkLineage& src : path.sources) {
    line(out, 1, "source chunk " + std::to_string(src.origin) + ":" + std::to_string(src.seq));
    if (!src.found && sampled) {
      line(out, 2, "(chunk trace sampled out of the dump; the evidence span below keeps the "
                   "record anchor)");
    }
    if (src.slice != nullptr) {
      line(out, 2, span_stamp(*src.slice) + "  badge " + std::to_string(src.slice->a));
    }
    if (src.root != nullptr) line(out, 2, span_stamp(*src.root));
    if (src.ack != nullptr) line(out, 2, span_stamp(*src.ack));
    for (const TraceSpan* r : src.reads) line(out, 2, span_stamp(*r));
  }
  for (const TraceSpan* ev : path.evidence) {
    line(out, 1, span_stamp(*ev) + "  recorded evidence, cited " + format_sim_time(ev->end));
  }
  line(out, 1, span_stamp(*path.raised) + "  kind " + std::to_string(path.raised->b) +
                   ", astronaut " + std::to_string(path.raised->c));
  for (const TraceSpan* d : path.deliveries) {
    line(out, 2, span_stamp(*d) + "  astronaut " + std::to_string(d->a) + ", modality " +
                     std::to_string(d->b));
  }
  for (const TraceSpan* p : path.publishes) {
    line(out, 2, span_stamp(*p) + "  published at node " + std::to_string(p->a));
  }
  // Earliest record anchor on the path: evidence spans start at the
  // record time, so this works even when every source chunk's trace was
  // sampled out; with the chunks on record the slice starts agree.
  SimTime earliest = path.raised->start;
  bool anchored = false;
  for (const TraceSpan* ev : path.evidence) {
    earliest = std::min(earliest, ev->start);
    anchored = true;
  }
  for (const ChunkLineage& src : path.sources) {
    if (src.slice != nullptr) {
      earliest = std::min(earliest, src.slice->start);
      anchored = true;
    }
    if (src.root != nullptr) {
      earliest = std::min(earliest, src.root->start);
      anchored = true;
    }
  }
  if (anchored) {
    line(out, 1, "record-to-raise latency: " +
                     std::to_string((path.raised->start - earliest) / kSecond) + " s");
  }
  return out;
}

std::string format_trace_meta(const TraceMeta& meta) {
  if (!meta.present) return {};
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g%%",
                100.0 * static_cast<double>(meta.keep_millionths) / 1'000'000.0);
  out += "sampling: keep threshold " + std::string(buf) + " (" +
         std::to_string(meta.keep_millionths) + "/1000000), " + std::to_string(meta.emitted) +
         " emitted, " + std::to_string(meta.dropped) + " dropped";
  if (meta.max_spans > 0) out += ", cap " + std::to_string(meta.max_spans);
  out += '\n';
  if (!meta.kinds.empty()) out += "per kind (kept/dropped, budget 0 = unlimited):\n";
  for (const TraceKindStats& k : meta.kinds) {
    line(out, 1, std::string(span_kind_name(k.kind)) + ": " + std::to_string(k.kept) + "/" +
                     std::to_string(k.dropped) + " (budget " + std::to_string(k.budget) + ")");
  }
  return out;
}

std::string format_summary(const TraceSummary& summary) {
  std::string out;
  out += "spans:  " + std::to_string(summary.spans) + "  (" + std::to_string(summary.traces) +
         " traces, " + std::to_string(summary.roots) + " roots, max depth " +
         std::to_string(summary.max_depth) + ")\n";
  out += "window: " + format_sim_time(summary.first_us) + " .. " +
         format_sim_time(summary.last_us) + "\n";
  out += "per subsystem:\n";
  for (std::size_t i = 0; i < summary.by_subsys.size(); ++i) {
    if (summary.by_subsys[i] == 0) continue;
    line(out, 1, std::string(subsys_name(static_cast<Subsys>(i))) + ": " +
                     std::to_string(summary.by_subsys[i]));
  }
  out += "per span kind:\n";
  for (const auto& [kind, count] : summary.by_kind) {
    line(out, 1, std::string(span_kind_name(kind)) + ": " + std::to_string(count));
  }
  return out;
}

}  // namespace hs::obs
