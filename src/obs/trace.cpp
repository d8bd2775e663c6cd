#include "obs/trace.hpp"

#include <cstdio>
#include <optional>
#include <string_view>

#include "util/strings.hpp"

namespace hs::obs {
namespace {

/// splitmix64 finalizer: a bijection on u64, so distinct emission indices
/// (same salt) can never collide, and good avalanche keeps unrelated
/// (origin, seq) pairs from producing adjacent ids.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kTraceSalt = 0x74726163653a6964ULL;   // "trace:id"
constexpr std::uint64_t kSpanSalt = 0x7370616e3a696473ULL;    // "span:ids"
constexpr std::uint64_t kSampleSalt = 0x73616d706c653a74ULL;  // "sample:t"

constexpr SimTime kOpenEnd = -1;

struct KindName {
  SpanKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {SpanKind::kSimEvent, "sim_event"},
    {SpanKind::kBadgeSlice, "badge_slice"},
    {SpanKind::kChunkOffload, "chunk_offload"},
    {SpanKind::kChunkReplicate, "chunk_replicate"},
    {SpanKind::kChunkAck, "chunk_ack"},
    {SpanKind::kChunkRead, "chunk_read"},
    {SpanKind::kControlPublish, "control_publish"},
    {SpanKind::kAlertRaised, "alert_raised"},
    {SpanKind::kAlertEvidence, "alert_evidence"},
    {SpanKind::kAlertDelivered, "alert_delivered"},
    {SpanKind::kProposalOpened, "proposal_opened"},
    {SpanKind::kVoteCast, "vote_cast"},
    {SpanKind::kProposalResolved, "proposal_resolved"},
    {SpanKind::kFaultArmed, "fault_armed"},
    {SpanKind::kFaultActive, "fault_active"},
    {SpanKind::kPipelineRun, "pipeline_run"},
    {SpanKind::kPipelineStage, "pipeline_stage"},
    {SpanKind::kPipelineShard, "pipeline_shard"},
};

std::optional<SpanKind> parse_kind(std::string_view name) {
  for (const auto& [kind, n] : kKindNames) {
    if (name == n) return kind;
  }
  return std::nullopt;
}

constexpr Subsys kAllSubsys[] = {Subsys::kSim,     Subsys::kBadge,  Subsys::kMesh,
                                 Subsys::kSupport, Subsys::kFaults, Subsys::kPipeline};

std::optional<Subsys> parse_subsys(std::string_view name) {
  for (const Subsys s : kAllSubsys) {
    if (name == subsys_name(s)) return s;
  }
  return std::nullopt;
}

void append_hex_id(std::string& out, std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  out += buf;
}

std::optional<std::uint64_t> parse_hex_id(std::string_view field) {
  if (field.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char ch : field) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') {
      v |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      v |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

template <typename T>
std::optional<T> parse_field(std::string_view field) {
  T v = 0;
  if (!parse_number(field, v)) return std::nullopt;
  return v;
}

Error parse_error(std::size_t line, const char* what) {
  return Error{"trace csv line " + std::to_string(line) + ": " + what};
}

}  // namespace

const char* span_kind_name(SpanKind k) {
  for (const auto& [kind, name] : kKindNames) {
    if (kind == k) return name;
  }
  return "?";
}

Tracer::Tracer(std::uint64_t seed, std::size_t max_spans)
    : seed_(seed), span_salt_(mix64(seed ^ kSpanSalt)), max_spans_(max_spans) {
  for (std::size_t k = 0; k < kKindCount; ++k) {
    kind_budget_[k] = default_kind_budget(static_cast<SpanKind>(k + 1), max_spans);
  }
}

std::uint64_t Tracer::default_kind_budget(SpanKind kind, std::size_t max_spans) {
  switch (kind) {
    case SpanKind::kSimEvent:
    case SpanKind::kBadgeSlice:
    case SpanKind::kChunkOffload:
    case SpanKind::kChunkReplicate:
    case SpanKind::kChunkAck:
    case SpanKind::kChunkRead:
    case SpanKind::kControlPublish:
      return static_cast<std::uint64_t>(max_spans) / 2;
    case SpanKind::kPipelineShard:
      return static_cast<std::uint64_t>(max_spans) / 4;
    case SpanKind::kPipelineStage:
      return static_cast<std::uint64_t>(max_spans) / 8;
    // The rare, high-value kinds a crew reconstructs failures from are
    // never budget-capped: only the global cap can drop them.
    case SpanKind::kAlertRaised:
    case SpanKind::kAlertEvidence:
    case SpanKind::kAlertDelivered:
    case SpanKind::kProposalOpened:
    case SpanKind::kVoteCast:
    case SpanKind::kProposalResolved:
    case SpanKind::kFaultArmed:
    case SpanKind::kFaultActive:
    case SpanKind::kPipelineRun:
      return 0;
  }
  return 0;
}

bool Tracer::sampled_in(TraceId trace) const {
  if (keep_millionths_ >= kSampleScale) return true;
  return mix64(trace ^ kSampleSalt) % kSampleScale < keep_millionths_;
}

bool Tracer::admits(TraceId trace, SpanKind kind) const {
  if (!sampled_in(trace)) return false;
  if (spans_.size() >= max_spans_) return false;
  const std::uint64_t budget = kind_budget_[kind_index(kind)];
  return budget == 0 || kind_kept_[kind_index(kind)] < budget;
}

void Tracer::note_drop(SpanKind kind) {
  const std::size_t k = kind_index(kind);
  ++kind_dropped_[k];
  if (dropped_counter_) dropped_counter_->inc();
  if (drop_registry_ != nullptr) {
    if (kind_counters_[k] == nullptr) {
      kind_counters_[k] =
          &drop_registry_->counter(std::string("hs.obs.trace_dropped.") + span_kind_name(kind));
    }
    kind_counters_[k]->inc();
  }
}

void Tracer::set_drop_metrics(Registry* registry) {
  drop_registry_ = registry;
  kind_counters_.fill(nullptr);
  dropped_counter_ =
      registry == nullptr ? nullptr : &registry->counter("hs.obs.trace_dropped_total");
}

TraceMeta Tracer::meta() const {
  TraceMeta out;
  out.present = true;
  out.seed = seed_;
  out.max_spans = max_spans_;
  out.keep_millionths = keep_millionths_;
  out.emitted = emitted_;
  out.dropped = dropped_count();
  for (std::size_t k = 0; k < kKindCount; ++k) {
    if (kind_kept_[k] == 0 && kind_dropped_[k] == 0) continue;
    out.kinds.push_back(TraceKindStats{static_cast<SpanKind>(k + 1), kind_budget_[k],
                                       kind_kept_[k], kind_dropped_[k]});
  }
  return out;
}

TraceId Tracer::trace_id(TraceOrigin origin, std::uint64_t hi, std::uint64_t lo) const {
  std::uint64_t h = mix64(seed_ ^ kTraceSalt);
  h = mix64(h ^ (static_cast<std::uint64_t>(origin) << 56) ^ hi);
  h = mix64(h ^ lo);
  return h == 0 ? 1 : h;
}

SpanId Tracer::next_span_id() {
  const SpanId id = mix64(span_salt_ ^ emitted_);
  ++emitted_;
  return id == 0 ? 1 : id;
}

SpanId Tracer::emit(TraceId trace, SpanKind kind, Subsys subsys, SimTime start, SimTime end,
                    SpanId parent, std::int64_t a, std::int64_t b, std::int64_t c) {
  const SpanId id = next_span_id();
  const SpanId ctx = context();
  const SpanId link = (ctx != 0 && ctx != parent) ? ctx : 0;
  if (!admits(trace, kind)) {
    note_drop(kind);
    return id;
  }
  ++kind_kept_[kind_index(kind)];
  spans_.push_back(TraceSpan{trace, id, parent, link, kind, subsys, start, end, a, b, c});
  return id;
}

SpanId Tracer::begin(TraceId trace, SpanKind kind, Subsys subsys, SimTime start,
                     SpanId parent, std::int64_t a, std::int64_t b, std::int64_t c) {
  const SpanId id = next_span_id();
  const SpanId ctx = context();
  const SpanId link = (ctx != 0 && ctx != parent) ? ctx : 0;
  if (!admits(trace, kind)) {
    note_drop(kind);
    return id;
  }
  ++kind_kept_[kind_index(kind)];
  open_.emplace(id, spans_.size());
  spans_.push_back(TraceSpan{trace, id, parent, link, kind, subsys, start, kOpenEnd, a, b, c});
  return id;
}

void Tracer::close(SpanId id, SimTime end) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown, already closed, or dropped
  spans_[it->second].end = end;
  open_.erase(it);
}

std::string Tracer::to_csv() const {
  std::string out = "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n";
  out.reserve(out.size() + spans_.size() * 112);
  const TraceMeta m = meta();
  out += "#tracer," + std::to_string(m.seed) + ',' + std::to_string(m.max_spans) + '\n';
  out += "#sampling," + std::to_string(m.keep_millionths) + ',' + std::to_string(m.emitted) +
         ',' + std::to_string(m.dropped) + '\n';
  for (const TraceKindStats& k : m.kinds) {
    out += "#kind,";
    out += span_kind_name(k.kind);
    out += ',' + std::to_string(k.budget) + ',' + std::to_string(k.kept) + ',' +
           std::to_string(k.dropped) + '\n';
  }
  for (const TraceSpan& s : spans_) {
    append_hex_id(out, s.trace);
    out += ',';
    append_hex_id(out, s.id);
    out += ',';
    append_hex_id(out, s.parent);
    out += ',';
    append_hex_id(out, s.link);
    out += ',';
    out += span_kind_name(s.kind);
    out += ',';
    out += subsys_name(s.subsys);
    out += ',';
    out += std::to_string(s.start);
    out += ',';
    out += std::to_string(s.end);
    out += ',';
    out += std::to_string(s.a);
    out += ',';
    out += std::to_string(s.b);
    out += ',';
    out += std::to_string(s.c);
    out += '\n';
  }
  return out;
}

namespace {

/// Split one CSV line into at most `max` comma-separated fields; returns
/// the field count or `max + 1` on overflow.
std::size_t split_fields(std::string_view line, std::string_view* fields, std::size_t max) {
  std::size_t nfields = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      if (nfields >= max) return max + 1;
      fields[nfields++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  return nfields;
}

}  // namespace

Expected<TraceDump> Tracer::parse_dump(const std::string& text) {
  constexpr std::string_view kHeader = "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c";
  TraceDump dump;
  std::vector<TraceSpan>& spans = dump.spans;
  bool seen_tracer_line = false;
  bool seen_sampling_line = false;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return Error{"trace csv: missing trailing newline"};
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeader) return Error{"trace csv: bad header"};
      continue;
    }

    // Metadata lines: optional, strictly before any span row.
    if (!line.empty() && line[0] == '#') {
      if (!spans.empty()) return parse_error(line_no, "metadata after span rows");
      std::string_view meta_fields[5];
      const std::size_t n = split_fields(line, meta_fields, 5);
      if (meta_fields[0] == "#tracer") {
        if (seen_tracer_line) return parse_error(line_no, "duplicate #tracer line");
        if (n != 3) return parse_error(line_no, "#tracer wants seed,max_spans");
        const auto seed = parse_field<std::uint64_t>(meta_fields[1]);
        const auto cap = parse_field<std::uint64_t>(meta_fields[2]);
        if (!seed || !cap) return parse_error(line_no, "bad #tracer field");
        dump.meta.seed = *seed;
        dump.meta.max_spans = *cap;
        seen_tracer_line = true;
      } else if (meta_fields[0] == "#sampling") {
        if (seen_sampling_line) return parse_error(line_no, "duplicate #sampling line");
        if (n != 4) return parse_error(line_no, "#sampling wants keep,emitted,dropped");
        const auto keep = parse_field<std::uint64_t>(meta_fields[1]);
        const auto emitted = parse_field<std::uint64_t>(meta_fields[2]);
        const auto dropped = parse_field<std::uint64_t>(meta_fields[3]);
        if (!keep || *keep > kSampleScale || !emitted || !dropped) {
          return parse_error(line_no, "bad #sampling field");
        }
        dump.meta.keep_millionths = static_cast<std::uint32_t>(*keep);
        dump.meta.emitted = *emitted;
        dump.meta.dropped = *dropped;
        seen_sampling_line = true;
      } else if (meta_fields[0] == "#kind") {
        if (n != 5) return parse_error(line_no, "#kind wants name,budget,kept,dropped");
        const auto kind = parse_kind(meta_fields[1]);
        if (!kind) return parse_error(line_no, "unknown span kind");
        for (const TraceKindStats& k : dump.meta.kinds) {
          if (k.kind == *kind) return parse_error(line_no, "duplicate #kind line");
        }
        const auto budget = parse_field<std::uint64_t>(meta_fields[2]);
        const auto kept = parse_field<std::uint64_t>(meta_fields[3]);
        const auto dropped = parse_field<std::uint64_t>(meta_fields[4]);
        if (!budget || !kept || !dropped) return parse_error(line_no, "bad #kind field");
        dump.meta.kinds.push_back(TraceKindStats{*kind, *budget, *kept, *dropped});
      } else {
        return parse_error(line_no, "unknown metadata directive");
      }
      dump.meta.present = true;
      continue;
    }

    std::string_view fields[11];
    const std::size_t nfields = split_fields(line, fields, 11);
    if (nfields > 11) return parse_error(line_no, "too many fields");
    if (nfields != 11) return parse_error(line_no, "expected 11 fields");

    TraceSpan s;
    const auto trace = parse_hex_id(fields[0]);
    const auto id = parse_hex_id(fields[1]);
    const auto parent = parse_hex_id(fields[2]);
    const auto link = parse_hex_id(fields[3]);
    if (!trace || !id || !parent || !link) return parse_error(line_no, "bad id field");
    const auto kind = parse_kind(fields[4]);
    if (!kind) return parse_error(line_no, "unknown span kind");
    const auto subsys = parse_subsys(fields[5]);
    if (!subsys) return parse_error(line_no, "unknown subsystem");
    const auto t0 = parse_field<std::int64_t>(fields[6]);
    const auto t1 = parse_field<std::int64_t>(fields[7]);
    const auto a = parse_field<std::int64_t>(fields[8]);
    const auto b = parse_field<std::int64_t>(fields[9]);
    const auto c = parse_field<std::int64_t>(fields[10]);
    if (!t0 || !t1 || !a || !b || !c) return parse_error(line_no, "bad integer field");
    s.trace = *trace;
    s.id = *id;
    s.parent = *parent;
    s.link = *link;
    s.kind = *kind;
    s.subsys = *subsys;
    s.start = *t0;
    s.end = *t1;
    s.a = *a;
    s.b = *b;
    s.c = *c;
    spans.push_back(s);
  }
  if (line_no == 0) return Error{"trace csv: empty input"};
  return dump;
}

std::string spans_to_chrome_json(const std::vector<TraceSpan>& spans) {
  std::string out = "{\"traceEvents\":[";
  // One Perfetto process row per subsystem, named up front.
  bool first = true;
  for (const Subsys s : kAllSubsys) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(static_cast<int>(s));
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += subsys_name(s);
    out += "\"}}";
  }
  for (const TraceSpan& s : spans) {
    const SimTime dur = s.end >= s.start ? s.end - s.start : 0;
    out += ",{\"name\":\"";
    out += span_kind_name(s.kind);
    out += "\",\"cat\":\"";
    out += subsys_name(s.subsys);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(s.start);
    out += ",\"dur\":";
    out += std::to_string(dur);
    out += ",\"pid\":";
    out += std::to_string(static_cast<int>(s.subsys));
    // Thread row = trace: every span of one causal chain shares a track.
    out += ",\"tid\":";
    out += std::to_string(s.trace % 1'000'000);
    out += ",\"args\":{\"trace\":\"";
    append_hex_id(out, s.trace);
    out += "\",\"span\":\"";
    append_hex_id(out, s.id);
    out += "\",\"parent\":\"";
    append_hex_id(out, s.parent);
    out += "\",\"link\":\"";
    append_hex_id(out, s.link);
    out += "\",\"a\":";
    out += std::to_string(s.a);
    out += ",\"b\":";
    out += std::to_string(s.b);
    out += ",\"c\":";
    out += std::to_string(s.c);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace hs::obs
