// Deterministic observability: the metrics registry.
//
// Every subsystem with a hot path (sim kernel, badge I/O, mesh, support,
// analysis pipeline) counts what it does through handles obtained from a
// Registry owned by whoever owns the run (MissionRunner for the mission
// side, the caller's PipelineOptions::metrics for the analysis side).
// The design rules:
//
//  * Zero allocation on the hot path. Registration (name lookup, map
//    insert, bucket allocation) happens once at wiring time; inc() /
//    set() / observe() touch only pre-allocated storage.
//  * A snapshot is a pure function of (seed, plan, threads). Metrics are
//    only ever updated from the single-threaded mission loop or from
//    serial index-order folds after a parallel_for barrier (the same
//    merge rules as docs/CONCURRENCY.md), so the exported dump is
//    byte-identical run to run and thread count to thread count.
//
// docs/OBSERVABILITY.md holds the metric catalog and the naming scheme
// (`<subsystem>.<what>`, lower_snake, counted nouns in the plural).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hpp"

namespace hs::obs {

/// Monotonically increasing event count. u64 increments commute, but the
/// determinism story does not rely on that: all writers are serial.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, live node counts).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bounds are strictly increasing and frozen at
/// registration; observe() is a branchless-ish upper_bound plus two adds.
/// Bucket layout for bounds {b0, ..., bn-1} (n + 1 buckets total):
///   bucket 0      : v <  b0            (underflow)
///   bucket i      : b(i-1) <= v < bi   (half-open interior)
///   bucket n      : v >= b(n-1)        (overflow)
/// A value exactly on a bound lands in the bucket above it.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] std::uint64_t underflow() const { return buckets_.front(); }
  [[nodiscard]] std::uint64_t overflow() const { return buckets_.back(); }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 slots
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One exported metric. `count` holds the counter value or histogram
/// observation count; `value` the gauge value or histogram sum.
struct SnapshotEntry {
  std::string name;
  char kind = 'c';  ///< 'c' counter, 'g' gauge, 'h' histogram
  std::uint64_t count = 0;
  double value = 0.0;
  std::vector<double> bounds;           ///< histogram only
  std::vector<std::uint64_t> buckets;   ///< histogram only

  friend bool operator==(const SnapshotEntry&, const SnapshotEntry&) = default;
};

/// A point-in-time export of every registered metric, sorted by name, so
/// two snapshots of equal registries serialize byte-identically. Doubles
/// print as shortest-round-trip (%.17g after an exactness check), so the
/// CSV loses no bits.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;

  [[nodiscard]] const SnapshotEntry* find(std::string_view name) const;
  [[nodiscard]] std::string to_csv() const;

  /// Fold `other` into this snapshot (the fleet roll-up): counters and
  /// histogram counts/sums/buckets add, gauges add (fleet totals — divide
  /// by habitat count for means), and names present in only one side are
  /// kept/inserted. Errors (and leaves *this untouched) when a shared
  /// name disagrees on kind or histogram bounds. Both snapshots must be
  /// name-sorted, as Registry::snapshot() produces; the
  /// result stays sorted, so rolled-up dumps keep the byte-stability
  /// contract.
  [[nodiscard]] Status accumulate(const MetricsSnapshot& other);

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Owns every metric for one run. Node-based storage keeps the references
/// handed out at registration stable for the registry's lifetime; the
/// instruments must not be used after the registry is destroyed.
class Registry {
 public:
  /// Find-or-create. Registering is the cold path (allocates); the
  /// returned reference is the hot-path handle.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be strictly increasing and non-empty; a second
  /// registration under the same name returns the existing histogram and
  /// ignores the bounds.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Format a double so that parsing it back yields the same bits: the
/// shortest of %.15g/%.16g/%.17g that survives a strtod round trip.
std::string format_double(double v);

}  // namespace hs::obs
