// hs::obs unit tests: registry semantics, histogram bucket edges, flight
// recorder wraparound, and the snapshot's canonical, lossless CSV. These
// are the substrate guarantees the mission-scale determinism tests build
// on — if any of this drifts, byte-identical dumps stop meaning anything.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace hs::obs {
namespace {

TEST(RegistryTest, CounterIsFindOrCreate) {
  Registry reg;
  Counter& a = reg.counter("sim.events_fired");
  Counter& b = reg.counter("sim.events_fired");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5U);
  EXPECT_EQ(reg.size(), 1U);
  ASSERT_NE(reg.find_counter("sim.events_fired"), nullptr);
  EXPECT_EQ(reg.find_counter("sim.events_fired")->value(), 5U);
  EXPECT_EQ(reg.find_counter("no.such"), nullptr);
}

TEST(RegistryTest, HandlesStayStableAcrossRegistrations) {
  // Node-based storage: registering more metrics must not move the ones
  // already handed out (the hot paths cache raw references).
  Registry reg;
  Counter& first = reg.counter("a.first");
  Counter* where = &first;
  for (int i = 0; i < 100; ++i) {
    reg.counter("b.filler_" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("a.first"), where);
  first.inc();
  EXPECT_EQ(reg.find_counter("a.first")->value(), 1U);
}

TEST(RegistryTest, GaugeLastWriteWins) {
  Registry reg;
  Gauge& g = reg.gauge("mission.days_run");
  g.set(3.0);
  g.set(14.0);
  EXPECT_EQ(g.value(), 14.0);
}

TEST(RegistryTest, HistogramSecondRegistrationKeepsOriginalBounds) {
  Registry reg;
  Histogram& h = reg.histogram("x.h", {1.0, 2.0});
  Histogram& again = reg.histogram("x.h", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(HistogramTest, BucketEdges) {
  // Bounds {10, 20, 30} make 4 buckets:
  //   [0] v < 10, [1] 10 <= v < 20, [2] 20 <= v < 30, [3] v >= 30.
  Histogram h({10.0, 20.0, 30.0});
  h.observe(-5.0);   // underflow
  h.observe(9.999);  // underflow
  h.observe(10.0);   // exactly on a bound: bucket above
  h.observe(19.999);
  h.observe(20.0);
  h.observe(29.999);
  h.observe(30.0);  // exactly on the last bound: overflow
  h.observe(1e9);   // far overflow

  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{2, 2, 2, 2}));
  EXPECT_EQ(h.underflow(), 2U);
  EXPECT_EQ(h.overflow(), 2U);
  EXPECT_EQ(h.count(), 8U);
  EXPECT_DOUBLE_EQ(h.sum(), -5.0 + 9.999 + 10.0 + 19.999 + 20.0 + 29.999 + 30.0 + 1e9);
}

TEST(HistogramTest, SingleBoundSplitsUnderAndOverflow) {
  Histogram h({0.0});
  h.observe(-1e-300);
  h.observe(0.0);
  h.observe(1.0);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 2U);  // 0.0 is on the bound => bucket above
}

TEST(FlightRecorderTest, RecordsInOrderBelowCapacity) {
  FlightRecorder rec(8);
  // The ring grows on demand; capacity() is its bound, not what it holds.
  EXPECT_EQ(rec.capacity(), 8U);
  EXPECT_EQ(rec.size(), 0U);
  EXPECT_TRUE(rec.events().empty());
  rec.record(100, Subsys::kFaults, EventCode::kFaultArmed, 0, 1);
  rec.record(200, Subsys::kSupport, EventCode::kAlertRaised, 2, -1);
  EXPECT_EQ(rec.size(), 2U);
  EXPECT_EQ(rec.total_recorded(), 2U);
  EXPECT_EQ(rec.dropped(), 0U);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0], (FlightEvent{100, Subsys::kFaults, EventCode::kFaultArmed, 0, 1}));
  EXPECT_EQ(events[1], (FlightEvent{200, Subsys::kSupport, EventCode::kAlertRaised, 2, -1}));
}

TEST(FlightRecorderTest, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder rec(4);
  for (int i = 0; i < 11; ++i) {
    rec.record(i * 10, Subsys::kMesh, EventCode::kOffloadDeferred, i);
  }
  EXPECT_EQ(rec.capacity(), 4U);
  EXPECT_EQ(rec.size(), 4U);
  EXPECT_EQ(rec.total_recorded(), 11U);
  EXPECT_EQ(rec.dropped(), 7U);

  // Oldest-first view over the surviving tail: events 7..10.
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 7 + i);
    EXPECT_EQ(events[i].t, (7 + i) * 10);
  }
}

TEST(FlightRecorderTest, FilterAndCountByCode) {
  FlightRecorder rec(16);
  rec.record(1, Subsys::kFaults, EventCode::kFaultArmed, 0);
  rec.record(2, Subsys::kFaults, EventCode::kFaultActivated, 0);
  rec.record(3, Subsys::kFaults, EventCode::kFaultArmed, 1);
  EXPECT_EQ(rec.count(EventCode::kFaultArmed), 2U);
  EXPECT_EQ(rec.count(EventCode::kFaultCleared), 0U);
  const auto armed = rec.events(EventCode::kFaultArmed);
  ASSERT_EQ(armed.size(), 2U);
  EXPECT_EQ(armed[0].a, 0);
  EXPECT_EQ(armed[1].a, 1);
}

TEST(FlightRecorderTest, CsvListsEventsOldestFirst) {
  FlightRecorder rec(4);
  rec.record(1000000, Subsys::kFaults, EventCode::kFaultArmed, 3, 2);
  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("t_us,subsys,event,a,b"), std::string::npos);
  EXPECT_NE(csv.find("1000000,faults,fault-armed,3,2"), std::string::npos);
}

Registry make_populated_registry() {
  Registry reg;
  reg.counter("sim.events_fired").inc(123456789);
  reg.counter("badge.sd_records_written").inc(1);
  reg.gauge("mission.days_run").set(14.0);
  Histogram& h = reg.histogram("mesh.chunk_wire_bytes", {256.0, 1024.0, 4096.0});
  h.observe(100.0);
  h.observe(256.0);
  h.observe(1.0 / 3.0);
  h.observe(5000.0);
  return reg;
}

TEST(SnapshotTest, EntriesAreSortedByName) {
  Registry a;
  a.counter("z.last").inc(1);
  a.counter("a.first").inc(2);
  Registry b;
  b.counter("a.first").inc(2);
  b.counter("z.last").inc(1);
  // Same contents, opposite registration order: identical exports.
  EXPECT_EQ(a.snapshot().to_csv(), b.snapshot().to_csv());
  const auto snap = a.snapshot();
  ASSERT_EQ(snap.entries.size(), 2U);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "z.last");
}

TEST(SnapshotTest, FindLocatesEntries) {
  const Registry reg = make_populated_registry();
  const auto snap = reg.snapshot();
  const SnapshotEntry* e = snap.find("sim.events_fired");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, 'c');
  EXPECT_EQ(e->count, 123456789U);
  EXPECT_EQ(snap.find("absent.metric"), nullptr);

  const SnapshotEntry* h = snap.find("mesh.chunk_wire_bytes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, 'h');
  EXPECT_EQ(h->count, 4U);
  ASSERT_EQ(h->buckets.size(), 4U);
  EXPECT_EQ(h->buckets[0], 2U);  // 100.0 and 1/3
  EXPECT_EQ(h->buckets[1], 1U);  // 256.0 on the bound -> bucket above
  EXPECT_EQ(h->buckets[3], 1U);  // 5000.0 overflow
}

TEST(FormatDoubleTest, RoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 38500.0,
                         std::nextafter(1.0, 2.0)}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

}  // namespace
}  // namespace hs::obs
