// Unit contract of hs::obs::trace.
//
// Covered: id derivation purity (ids are functions of the seed, never of
// wall clock or prior state), the span cap (ids keep flowing, drops are
// counted, what is kept is deterministic), the causal-context stack and
// its auto-link rule, begin/close open spans, the strict CSV round-trip,
// the Chrome trace-event export (validated with a hand-rolled JSON
// parser — no third-party JSON dependency in the tree), and the flight
// recorder's wraparound accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_query.hpp"

namespace hs::obs {
namespace {

// ---------------------------------------------------------------------------
// Id derivation
// ---------------------------------------------------------------------------

TEST(TraceIdTest, IdsArePureFunctionsOfTheSeed) {
  const Tracer a(42);
  const Tracer b(42);
  EXPECT_EQ(a.chunk_trace(3, 17), b.chunk_trace(3, 17));
  EXPECT_EQ(a.alert_trace(0), b.alert_trace(0));
  EXPECT_EQ(a.sim_event_trace(9), b.sim_event_trace(9));
  EXPECT_EQ(a.proposal_trace(1), b.proposal_trace(1));
  EXPECT_EQ(a.fault_trace(2), b.fault_trace(2));
  EXPECT_EQ(a.pipeline_trace(0), b.pipeline_trace(0));
}

TEST(TraceIdTest, DifferentSeedsDiverge) {
  const Tracer a(42);
  const Tracer b(7);
  EXPECT_NE(a.chunk_trace(3, 17), b.chunk_trace(3, 17));
  EXPECT_NE(a.alert_trace(0), b.alert_trace(0));
}

TEST(TraceIdTest, OriginNamespacesNeverCollide) {
  // A chunk and an alert with the same ordinal must land in different
  // traces — the origin class is part of the derivation.
  const Tracer t(42);
  EXPECT_NE(t.chunk_trace(0, 0), t.alert_trace(0));
  EXPECT_NE(t.alert_trace(0), t.proposal_trace(0));
  EXPECT_NE(t.proposal_trace(0), t.fault_trace(0));
  EXPECT_NE(t.fault_trace(0), t.pipeline_trace(0));
  EXPECT_NE(t.sim_event_trace(0), t.chunk_trace(0, 0));
}

TEST(TraceIdTest, ZeroIsNeverIssued) {
  // 0 means "none" (no parent, no link); no derived id may collide with it.
  Tracer t(0);  // the degenerate seed is the most likely to produce 0
  EXPECT_NE(t.chunk_trace(0, 0), 0U);
  EXPECT_NE(t.emit(t.chunk_trace(0, 0), SpanKind::kChunkOffload, Subsys::kMesh, 0, 0), 0U);
}

// ---------------------------------------------------------------------------
// Emission, the cap, and drop accounting
// ---------------------------------------------------------------------------

TEST(TracerTest, EmissionIsDeterministic) {
  auto run = [] {
    Tracer t(42);
    for (int i = 0; i < 100; ++i) {
      t.emit(t.chunk_trace(0, static_cast<std::uint64_t>(i)), SpanKind::kChunkOffload,
             Subsys::kMesh, i, i, 0, 0, i);
    }
    return t.to_csv();
  };
  EXPECT_EQ(run(), run());
}

TEST(TracerTest, CapDropsAreCountedAndIdsKeepFlowing) {
  Tracer t(42, /*max_spans=*/4);
  // Lift the per-kind budget so this test isolates the global cap.
  t.set_kind_budget(SpanKind::kChunkOffload, 0);
  Registry registry;
  t.set_drop_metrics(&registry);
  const Counter& dropped = *registry.find_counter("hs.obs.trace_dropped_total");

  std::vector<SpanId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(t.emit(t.chunk_trace(0, static_cast<std::uint64_t>(i)),
                         SpanKind::kChunkOffload, Subsys::kMesh, i, i));
  }
  EXPECT_EQ(t.size(), 4U);
  EXPECT_EQ(t.total_emitted(), 10U);
  EXPECT_EQ(t.dropped_count(), 6U);
  EXPECT_EQ(dropped.value(), 6U);
  // The cap drops are attributed to the kind that hit the wall.
  EXPECT_EQ(t.kind_kept(SpanKind::kChunkOffload), 4U);
  EXPECT_EQ(t.kind_dropped(SpanKind::kChunkOffload), 6U);
  ASSERT_NE(registry.find_counter("hs.obs.trace_dropped.chunk_offload"), nullptr);
  EXPECT_EQ(registry.find_counter("hs.obs.trace_dropped.chunk_offload")->value(), 6U);
  // Ids are assigned even for dropped spans (id assignment never depends
  // on the cap), and they are all distinct.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 0U);
    for (std::size_t j = i + 1; j < ids.size(); ++j) EXPECT_NE(ids[i], ids[j]);
  }
  // What was kept is the deterministic prefix.
  ASSERT_EQ(t.spans().size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t.spans()[i].id, ids[i]);
}

TEST(TracerTest, CapDoesNotChangeSurvivingIds) {
  // The same emission sequence under a tighter cap keeps byte-identical
  // ids for the spans that survive — so a capped dump is a prefix, not a
  // reshuffle.
  Tracer wide(42, 100);
  Tracer tight(42, 3);
  wide.set_kind_budget(SpanKind::kChunkOffload, 0);
  tight.set_kind_budget(SpanKind::kChunkOffload, 0);
  for (int i = 0; i < 8; ++i) {
    wide.emit(wide.chunk_trace(1, static_cast<std::uint64_t>(i)), SpanKind::kChunkOffload,
              Subsys::kMesh, i, i);
    tight.emit(tight.chunk_trace(1, static_cast<std::uint64_t>(i)), SpanKind::kChunkOffload,
               Subsys::kMesh, i, i);
  }
  ASSERT_EQ(tight.spans().size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(tight.spans()[i], wide.spans()[i]);
}

// ---------------------------------------------------------------------------
// Context stack and the auto-link rule
// ---------------------------------------------------------------------------

TEST(TracerTest, ContextBecomesLinkAcrossTraces) {
  Tracer t(42);
  const SpanId kernel = t.emit(t.sim_event_trace(0), SpanKind::kSimEvent, Subsys::kSim, 0, 0);
  t.push_context(kernel);
  // No parent, foreign trace: the context becomes the cross-trace link.
  t.emit(t.chunk_trace(0, 0), SpanKind::kChunkOffload, Subsys::kMesh, 0, 0);
  t.pop_context();
  const TraceSpan& linked = t.spans().back();
  EXPECT_EQ(linked.link, kernel);
  EXPECT_EQ(linked.parent, 0U);
  EXPECT_EQ(t.context(), 0U);
}

TEST(TracerTest, ContextEqualToParentDoesNotDuplicateAsLink) {
  Tracer t(42);
  const SpanId raised = t.emit(t.alert_trace(0), SpanKind::kAlertRaised, Subsys::kSupport, 0, 0);
  t.push_context(raised);
  t.emit(t.alert_trace(0), SpanKind::kAlertDelivered, Subsys::kSupport, 0, 0, /*parent=*/raised);
  t.pop_context();
  const TraceSpan& child = t.spans().back();
  EXPECT_EQ(child.parent, raised);
  EXPECT_EQ(child.link, 0U);  // lineage already carries the edge
}

TEST(TracerTest, ContextStackNestsAndUnderflowIsHarmless) {
  Tracer t(42);
  t.push_context(11);
  t.push_context(22);
  EXPECT_EQ(t.context(), 22U);
  t.pop_context();
  EXPECT_EQ(t.context(), 11U);
  t.pop_context();
  EXPECT_EQ(t.context(), 0U);
  t.pop_context();  // extra pop must not crash or corrupt
  EXPECT_EQ(t.context(), 0U);
}

// ---------------------------------------------------------------------------
// Open spans
// ---------------------------------------------------------------------------

TEST(TracerTest, BeginCloseBracketsAnOpenSpan) {
  Tracer t(42);
  const SpanId id = t.begin(t.fault_trace(0), SpanKind::kFaultActive, Subsys::kFaults, 100);
  ASSERT_EQ(t.spans().size(), 1U);
  EXPECT_EQ(t.spans()[0].end, -1);  // open
  t.close(id, 500);
  EXPECT_EQ(t.spans()[0].end, 500);
  t.close(id, 900);  // double close is a no-op
  EXPECT_EQ(t.spans()[0].end, 500);
  t.close(12345, 1000);  // unknown id is a no-op
}

// ---------------------------------------------------------------------------
// CSV round-trip and strict parsing
// ---------------------------------------------------------------------------

Tracer small_mission_tracer() {
  Tracer t(42);
  const SpanId ev = t.emit(t.sim_event_trace(3), SpanKind::kSimEvent, Subsys::kSim, 1000, 1000,
                           0, 3, 60'000'000);
  t.push_context(ev);
  const SpanId off = t.emit(t.chunk_trace(2, 5), SpanKind::kChunkOffload, Subsys::kMesh, 1000,
                            1000, 0, 2, 5, 9);
  t.pop_context();
  t.emit(t.chunk_trace(2, 5), SpanKind::kChunkAck, Subsys::kMesh, 2000, 2000, off, 2, 5, 3);
  const SpanId open = t.begin(t.fault_trace(0), SpanKind::kFaultActive, Subsys::kFaults, 500,
                              0, 0, 4);
  t.close(open, 1500);
  t.emit(t.alert_trace(0), SpanKind::kAlertRaised, Subsys::kSupport, -3, -3, 0, 0, 1, -1);
  return t;
}

TEST(TraceCsvTest, RoundTripIsExact) {
  const Tracer t = small_mission_tracer();
  const auto parsed = Tracer::parse_dump(t.to_csv());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const std::vector<TraceSpan>& spans = parsed->spans;
  ASSERT_EQ(spans.size(), t.spans().size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i], t.spans()[i]) << "span " << i;
  }
  // And the Chrome export of the parsed spans equals the live export.
  EXPECT_EQ(spans_to_chrome_json(spans), spans_to_chrome_json(t.spans()));
}

TEST(TraceCsvTest, EmptyTracerStillRoundTrips) {
  const Tracer t(42);
  const auto parsed = Tracer::parse_dump(t.to_csv());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_TRUE(parsed->spans.empty());
}

TEST(TraceCsvTest, StrictParserRejectsMalformedInput) {
  const std::string good = small_mission_tracer().to_csv();

  // Wrong header.
  {
    std::string bad = good;
    bad[0] = 'T';
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("bad header"), std::string::npos) << r.error().message;
  }
  // Missing trailing newline.
  {
    std::string bad = good;
    bad.pop_back();
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("newline"), std::string::npos);
  }
  // Wrong field count — and the error names the offending line (after
  // the header, the #tracer/#sampling/#kind metadata and the span rows).
  {
    const auto lines = static_cast<std::size_t>(std::count(good.begin(), good.end(), '\n'));
    const std::string bad = good + "deadbeef,1,2\n";
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("expected 11 fields"), std::string::npos);
    EXPECT_NE(r.error().message.find("line " + std::to_string(lines + 1)), std::string::npos)
        << r.error().message;
  }
  // Bad hex in an id field.
  {
    const std::string bad =
        "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n"
        "zzzz,0000000000000001,0000000000000000,0000000000000000,"
        "sim_event,sim,0,0,0,0,0\n";
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("bad id field"), std::string::npos);
    EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
  }
  // Unknown span kind / subsystem.
  {
    const std::string bad =
        "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n"
        "0000000000000001,0000000000000002,0000000000000000,0000000000000000,"
        "warp_drive,sim,0,0,0,0,0\n";
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("unknown span kind"), std::string::npos);
  }
  // Non-numeric time.
  {
    const std::string bad =
        "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n"
        "0000000000000001,0000000000000002,0000000000000000,0000000000000000,"
        "sim_event,sim,later,0,0,0,0\n";
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("bad integer field"), std::string::npos);
  }
  // An argument past int64 is an error, not a value clamped to the limit.
  {
    const std::string bad =
        "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n"
        "0000000000000001,0000000000000002,0000000000000000,0000000000000000,"
        "sim_event,sim,0,0,99999999999999999999,0,0\n";
    const auto r = Tracer::parse_dump(bad);
    ASSERT_FALSE(r.has_value());
    EXPECT_NE(r.error().message.find("bad integer field"), std::string::npos);
  }
  // Empty input.
  EXPECT_FALSE(Tracer::parse_dump("").has_value());
}

// ---------------------------------------------------------------------------
// Head-based sampling and per-kind budgets
// ---------------------------------------------------------------------------

TEST(TraceSamplingTest, KeepsOrDropsWholeStories) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{42}}) {
    Tracer full(seed);
    Tracer half(seed);
    half.set_sampling(Tracer::kSampleScale / 2);
    // 64 three-span stories (offload -> replicate -> ack), one trace each.
    for (std::uint64_t c = 0; c < 64; ++c) {
      for (Tracer* t : {&full, &half}) {
        const TraceId trace = t->chunk_trace(0, c);
        const SpanId off = t->emit(trace, SpanKind::kChunkOffload, Subsys::kMesh,
                                   static_cast<SimTime>(c), static_cast<SimTime>(c), 0, 0,
                                   static_cast<std::int64_t>(c));
        const SpanId rep = t->emit(trace, SpanKind::kChunkReplicate, Subsys::kMesh,
                                   static_cast<SimTime>(c), static_cast<SimTime>(c), off);
        t->emit(trace, SpanKind::kChunkAck, Subsys::kMesh, static_cast<SimTime>(c + 1),
                static_cast<SimTime>(c + 1), rep);
      }
    }
    // The sampled tracer's span list is exactly the sampled_in() filter of
    // the full run — stories survive or vanish atomically (ids included,
    // because id assignment never depends on the keep/drop decision).
    std::vector<TraceSpan> expect;
    for (const TraceSpan& s : full.spans()) {
      if (half.sampled_in(s.trace)) expect.push_back(s);
    }
    EXPECT_EQ(half.spans(), expect) << "seed " << seed;
    EXPECT_FALSE(expect.empty()) << "seed " << seed;
    EXPECT_LT(expect.size(), full.spans().size()) << "seed " << seed;
    EXPECT_EQ(half.spans().size() % 3, 0U) << "orphaned story fragment, seed " << seed;
    EXPECT_EQ(half.dropped_count(), full.spans().size() - expect.size());
    EXPECT_EQ(half.total_emitted(), full.spans().size());
  }
}

TEST(TraceSamplingTest, FullThresholdKeepsEverythingZeroKeepsNothing) {
  Tracer all(42);
  Tracer none(42);
  none.set_sampling(0);
  for (std::uint64_t c = 0; c < 16; ++c) {
    EXPECT_TRUE(all.sampled_in(all.chunk_trace(0, c)));
    none.emit(none.chunk_trace(0, c), SpanKind::kChunkOffload, Subsys::kMesh, 0, 0);
  }
  EXPECT_EQ(none.size(), 0U);
  EXPECT_EQ(none.dropped_count(), 16U);
}

TEST(TraceBudgetTest, BudgetsProtectRareKindsUnderCapPressure) {
  Tracer t(42, /*max_spans=*/8);
  // Chatty kinds default to half the cap; alert kinds are unbudgeted.
  EXPECT_EQ(t.kind_budget(SpanKind::kSimEvent), 4U);
  EXPECT_EQ(t.kind_budget(SpanKind::kAlertRaised), 0U);
  Registry registry;
  t.set_drop_metrics(&registry);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.emit(t.sim_event_trace(i), SpanKind::kSimEvent, Subsys::kSim, 0, 0);
  }
  // The budget (not the cap) stopped the flood, leaving room for the
  // rare story that arrives after it.
  EXPECT_EQ(t.size(), 4U);
  t.emit(t.alert_trace(0), SpanKind::kAlertRaised, Subsys::kSupport, 99, 99);
  EXPECT_EQ(t.size(), 5U);
  EXPECT_EQ(t.kind_kept(SpanKind::kSimEvent), 4U);
  EXPECT_EQ(t.kind_dropped(SpanKind::kSimEvent), 16U);
  EXPECT_EQ(t.kind_kept(SpanKind::kAlertRaised), 1U);
  EXPECT_EQ(t.kind_dropped(SpanKind::kAlertRaised), 0U);
  // Accounting agrees three ways: tracer totals, per-kind counters, and
  // the registry (total + per-kind lazily registered counter).
  EXPECT_EQ(t.dropped_count(), 16U);
  EXPECT_EQ(t.total_emitted() - t.size(), t.dropped_count());
  const MetricsSnapshot snap = registry.snapshot();
  const SnapshotEntry* total = snap.find("hs.obs.trace_dropped_total");
  const SnapshotEntry* per_kind = snap.find("hs.obs.trace_dropped.sim_event");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(per_kind, nullptr);
  EXPECT_EQ(total->count, 16U);
  EXPECT_EQ(per_kind->count, 16U);
  // Kinds that never dropped a span register no counter at all.
  EXPECT_EQ(snap.find("hs.obs.trace_dropped.alert_raised"), nullptr);
}

TEST(TraceMetaTest, MetaRoundTripsThroughParseDump) {
  Tracer t(42, /*max_spans=*/4);
  t.set_sampling(Tracer::kSampleScale / 2);
  t.set_kind_budget(SpanKind::kChunkOffload, 2);
  for (std::uint64_t c = 0; c < 12; ++c) {
    t.emit(t.chunk_trace(0, c), SpanKind::kChunkOffload, Subsys::kMesh, 0, 0);
  }
  const auto parsed = Tracer::parse_dump(t.to_csv());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_TRUE(parsed->meta.present);
  EXPECT_EQ(parsed->meta, t.meta());
  EXPECT_EQ(parsed->meta.seed, 42U);
  EXPECT_EQ(parsed->meta.max_spans, 4U);
  EXPECT_EQ(parsed->meta.keep_millionths, Tracer::kSampleScale / 2);
  EXPECT_EQ(parsed->meta.emitted, 12U);
  EXPECT_EQ(parsed->spans, t.spans());
}

TEST(TraceMetaTest, DumpsWithoutMetadataStillParse) {
  // Pre-sampling dumps carry no # lines; they must stay readable.
  const std::string old_dump =
      "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n"
      "0000000000000001,0000000000000002,0000000000000000,0000000000000000,"
      "sim_event,sim,0,0,0,0,0\n";
  const auto parsed = Tracer::parse_dump(old_dump);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_FALSE(parsed->meta.present);
  EXPECT_EQ(parsed->spans.size(), 1U);
}

TEST(TraceMetaTest, StrictParserRejectsMalformedMetadata) {
  const std::string header = "trace,span,parent,link,kind,subsys,start_us,end_us,a,b,c\n";
  const std::string span =
      "0000000000000001,0000000000000002,0000000000000000,0000000000000000,"
      "sim_event,sim,0,0,0,0,0\n";
  const struct {
    const char* lines;
    const char* expect;
  } cases[] = {
      {"#tracer,42\n", "#tracer wants seed,max_spans"},
      {"#tracer, 42,100\n", "bad #tracer field"},
      {"#tracer,42,100\n#tracer,42,100\n", "duplicate #tracer line"},
      {"#sampling,2000000,0,0\n", "bad #sampling field"},
      {"#sampling,500000,0\n", "#sampling wants keep,emitted,dropped"},
      {"#sampling,500000,0,0\n#sampling,500000,0,0\n", "duplicate #sampling line"},
      {"#kind,warp_drive,0,0,0\n", "unknown span kind"},
      {"#kind,sim_event,0,1,0\n#kind,sim_event,0,1,0\n", "duplicate #kind line"},
      {"#kind,sim_event,0,x,0\n", "bad #kind field"},
      {"#wormhole,1\n", "unknown metadata directive"},
  };
  for (const auto& c : cases) {
    const auto r = Tracer::parse_dump(header + c.lines + span);
    ASSERT_FALSE(r.has_value()) << c.lines;
    EXPECT_NE(r.error().message.find(c.expect), std::string::npos)
        << c.lines << " -> " << r.error().message;
  }
  // Metadata must precede every span row.
  const auto late = Tracer::parse_dump(header + span + "#tracer,42,100\n");
  ASSERT_FALSE(late.has_value());
  EXPECT_NE(late.error().message.find("metadata after span rows"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Minimal recursive-descent JSON syntax checker. Accepts exactly the
/// RFC 8259 grammar (objects, arrays, strings with escapes, numbers,
/// true/false/null); no extensions. Enough to guarantee the export loads
/// in Perfetto's parser without carrying a JSON library in the tree.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0' && pos_ + 1 < s_.size() &&
        std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
      return false;  // RFC 8259: no leading zeros
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ChromeJsonTest, ExportIsValidJsonWithTheTraceEventSchema) {
  const Tracer t = small_mission_tracer();
  const std::string json = spans_to_chrome_json(t.spans());

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  // Schema: a traceEvents array, one ph:"X" complete event per span, one
  // ph:"M" process_name metadata row per subsystem.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0U);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), t.spans().size());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 6U);  // one per Subsys
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(ChromeJsonTest, JsonCheckerRejectsBrokenDocuments) {
  // The validator itself must have teeth, or the schema test proves
  // nothing.
  for (const char* bad : {"", "{", "[1,2", "{\"a\":}", "{\"a\" 1}", "{'a':1}",
                          "{\"a\":1,}", "[01]", "\"unterminated", "{\"a\":1}x",
                          "{\"a\":+1}", "[1 2]"}) {
    JsonChecker checker_bad{std::string(bad)};
    EXPECT_FALSE(checker_bad.valid()) << bad;
  }
  for (const char* good :
       {"{}", "[]", "{\"a\":[1,-2.5,1e9,true,false,null,\"s\\n\\u00e9\"]}"}) {
    JsonChecker checker_good{std::string(good)};
    EXPECT_TRUE(checker_good.valid()) << good;
  }
}

// ---------------------------------------------------------------------------
// TraceIndex on synthetic spans
// ---------------------------------------------------------------------------

TEST(TraceIndexTest, FollowsASyntheticChunk) {
  Tracer t(42);
  const TraceId trace = t.chunk_trace(4, 9);
  const SpanId slice =
      t.emit(trace, SpanKind::kBadgeSlice, Subsys::kBadge, 100, 100, 0, 4, 12);
  const SpanId off =
      t.emit(trace, SpanKind::kChunkOffload, Subsys::kMesh, 100, 100, slice, 4, 9, 2);
  t.emit(trace, SpanKind::kChunkReplicate, Subsys::kMesh, 130, 130, off, 2, 5);
  t.emit(trace, SpanKind::kChunkReplicate, Subsys::kMesh, 160, 160, off, 5, 7);
  t.emit(trace, SpanKind::kChunkAck, Subsys::kMesh, 160, 160, off, 4, 9, 3);
  t.emit(trace, SpanKind::kChunkRead, Subsys::kMesh, 900, 900, off, 4, 9, 12);

  const TraceIndex index(t.spans());
  const ChunkLineage lineage = index.follow_chunk(4, 9);
  ASSERT_TRUE(lineage.found);
  ASSERT_NE(lineage.slice, nullptr);
  EXPECT_EQ(lineage.slice->id, slice);
  ASSERT_NE(lineage.root, nullptr);
  EXPECT_EQ(lineage.root->id, off);
  EXPECT_EQ(lineage.replicas.size(), 2U);
  ASSERT_NE(lineage.ack, nullptr);
  EXPECT_EQ(lineage.reads.size(), 1U);
  EXPECT_TRUE(lineage.complete(3));
  EXPECT_FALSE(lineage.complete(4));

  const auto first = index.first_acked_chunk();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 4);
  EXPECT_EQ(first->second, 9);

  EXPECT_FALSE(index.follow_chunk(4, 10).found);
}

TEST(TraceIndexTest, FirstNamingSpanPicksTheTraceAndListsKeepEmissionOrder) {
  // A hand-made dump in which chunk 4:9 is named in two traces (0x200
  // first, then 0x300), evidence citing it comes before, between and
  // after its own spans, and alert 0 has two raise spans.
  const auto span = [](TraceId trace, SpanId id, SpanKind kind, std::int64_t a, std::int64_t b,
                       SpanId parent = 0, SpanId link = 0) {
    return TraceSpan{.trace = trace, .id = id, .parent = parent, .link = link, .kind = kind,
                     .subsys = Subsys::kMesh, .start = static_cast<SimTime>(id),
                     .end = static_cast<SimTime>(id), .a = a, .b = b, .c = 3};
  };
  const std::vector<TraceSpan> spans = {
      span(0x100, 1, SpanKind::kAlertEvidence, 4, 9),
      span(0x100, 2, SpanKind::kAlertRaised, 0, 1),
      span(0x200, 3, SpanKind::kBadgeSlice, 4, 12),
      span(0x200, 4, SpanKind::kChunkOffload, 4, 9, 3),
      span(0x101, 5, SpanKind::kAlertEvidence, 4, 9),
      span(0x300, 6, SpanKind::kChunkAck, 4, 9),
      span(0x300, 7, SpanKind::kChunkRead, 4, 9, 6),
      span(0x200, 8, SpanKind::kChunkReplicate, 2, 5, 4),
      span(0x200, 9, SpanKind::kChunkAck, 4, 9, 4),
      span(0x102, 10, SpanKind::kAlertEvidence, 4, 9),
      // Chunk 5:1: a read names it before its offload does.
      span(0x400, 11, SpanKind::kChunkRead, 5, 1),
      span(0x500, 12, SpanKind::kChunkOffload, 5, 1),
      // A second raise of alert 0 and publishes linked to each raise.
      span(0x600, 13, SpanKind::kControlPublish, 7, 0, 0, 2),
      span(0x103, 14, SpanKind::kAlertRaised, 0, 2),
      span(0x700, 15, SpanKind::kControlPublish, 8, 0, 0, 14),
      span(0x800, 16, SpanKind::kControlPublish, 9, 0, 0, 2),
  };
  const TraceIndex index(spans);
  const auto ids = [](const std::vector<const TraceSpan*>& list) {
    std::vector<SpanId> out;
    for (const TraceSpan* s : list) out.push_back(s->id);
    return out;
  };

  // The first offload, ack or read span naming the chunk picks its trace;
  // spans of the other trace stay out of the lineage.
  const ChunkLineage chunk = index.follow_chunk(4, 9);
  ASSERT_TRUE(chunk.found);
  ASSERT_NE(chunk.slice, nullptr);
  EXPECT_EQ(chunk.slice->id, 3U);
  ASSERT_NE(chunk.root, nullptr);
  EXPECT_EQ(chunk.root->id, 4U);
  EXPECT_EQ(ids(chunk.replicas), (std::vector<SpanId>{8}));
  ASSERT_NE(chunk.ack, nullptr);
  EXPECT_EQ(chunk.ack->id, 9U);
  EXPECT_TRUE(chunk.reads.empty());
  // Every evidence span citing the chunk, wherever it sits, in dump order.
  EXPECT_EQ(ids(chunk.consumers), (std::vector<SpanId>{1, 5, 10}));

  const ChunkLineage read_first = index.follow_chunk(5, 1);
  ASSERT_TRUE(read_first.found);
  EXPECT_EQ(read_first.root, nullptr);
  EXPECT_EQ(ids(read_first.reads), (std::vector<SpanId>{11}));
  EXPECT_TRUE(read_first.consumers.empty());

  // The first raise span is the alert's; publishes follow its id as link.
  const AlertPath path = index.critical_path(0);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.raised->id, 2U);
  EXPECT_EQ(ids(path.evidence), (std::vector<SpanId>{1}));
  EXPECT_EQ(ids(path.publishes), (std::vector<SpanId>{13, 16}));
  ASSERT_EQ(path.sources.size(), 1U);
  EXPECT_EQ(path.sources[0].root->id, 4U);
  EXPECT_EQ(index.alert_indices(), (std::vector<std::int64_t>{0, 0}));
  EXPECT_FALSE(index.critical_path(1).found);
}

// ---------------------------------------------------------------------------
// Flight recorder wraparound accounting (satellite: capacity/dropped)
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, WraparoundIsCountedAndExposed) {
  FlightRecorder recorder(/*capacity=*/8);
  Registry registry;
  Counter& dropped = registry.counter("hs.obs.flight_dropped_total");
  recorder.set_dropped_counter(&dropped);

  EXPECT_EQ(recorder.capacity(), 8U);
  for (int i = 0; i < 8; ++i) {
    recorder.record(i, Subsys::kSim, EventCode::kFaultActivated, i);
  }
  EXPECT_EQ(recorder.dropped(), 0U);
  EXPECT_EQ(dropped.value(), 0U);  // filling the ring loses nothing

  for (int i = 8; i < 13; ++i) {
    recorder.record(i, Subsys::kSim, EventCode::kFaultActivated, i);
  }
  EXPECT_EQ(recorder.size(), 8U);
  EXPECT_EQ(recorder.total_recorded(), 13U);
  EXPECT_EQ(recorder.dropped(), 5U);
  EXPECT_EQ(dropped.value(), 5U);
  // The survivors are the most recent `capacity` events, oldest first.
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 8U);
  EXPECT_EQ(events.front().a, 5);
  EXPECT_EQ(events.back().a, 12);
}

}  // namespace
}  // namespace hs::obs
