// Columnar record batches: the struct-of-arrays form of one badge's
// rectified, worn-filtered record streams.
//
// Attributing a record costs a clock-rectify call, an ownership lookup (a
// linear scan over the schedule) and a mission-day division. A
// RecordBatch restructures the work so the rectify is paid once per
// *column pass* and the rest once per *badge-day run*: build() streams
// each SD-card record stream once into contiguous std::vector columns
// (timestamps, beacon ids, RSSI, audio/motion features), and records
// where the mission-day boundaries fall, so the attribute stage resolves
// ownership per day-run and the DSP predicates run as plain loops over
// contiguous arrays.
//
// Ownership rule (docs/CONCURRENCY.md): each batch owns its vectors and
// belongs to exactly one pipeline shard; the serial merge copies the
// slices it keeps (per-astronaut contributions) out of it. No cross-shard
// aliasing, ever.
//
// Determinism: every value in a column is one scalar expression of one
// card record (`fit.rectify(t) / 1000.0`, the worn-interval cursor), kept
// in card order. tests/record_batch_test.cpp checks the pipeline against
// a per-record attribution oracle on the edge cases (empty badge-day,
// single record, day straddle, badge swap and reuse, NaN features), and
// tests/repro_test.cpp pins a digest of every output of the seed-42
// mission.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "badge/sdcard.hpp"
#include "io/records.hpp"
#include "timesync/estimator.hpp"
#include "util/units.hpp"

namespace hs::core {

/// A maximal run of consecutive column indices [begin, end) that share one
/// mission day. Timestamps are sorted, so days form contiguous runs; the
/// attribute stage resolves badge ownership once per run instead of once
/// per record.
struct DayRun {
  int day = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  friend bool operator==(const DayRun&, const DayRun&) = default;
};

/// Split a rectified-seconds column into mission-day runs with a single
/// linear scan whose boundaries match the per-record classification
/// `mission_day(static_cast<SimTime>(t_s * 1e6))` bit-for-bit — including
/// records that straddle midnight with sub-microsecond fractions. Runs
/// are maximal consecutive same-day stretches; no sortedness is assumed
/// (an out-of-order stamp yields an extra run, never a misclassified
/// record).
[[nodiscard]] std::vector<DayRun> day_runs(const double* t_s, std::size_t n);

/// Sorted-interval membership test with a moving cursor, for streams
/// processed in time order — RecordBatch::build's worn filter.
class IntervalCursor {
 public:
  explicit IntervalCursor(const std::vector<std::pair<double, double>>& intervals)
      : intervals_(&intervals) {}

  bool contains(double t) {
    while (idx_ < intervals_->size() && (*intervals_)[idx_].second <= t) ++idx_;
    return idx_ < intervals_->size() && (*intervals_)[idx_].first <= t;
  }

 private:
  const std::vector<std::pair<double, double>>* intervals_;
  std::size_t idx_ = 0;
};

/// Record columns of one badge (a RecordBatch) or of one astronaut:
/// beacon observations, audio features and motion features, the columns
/// of each stream equally long and in the same order. The attribute stage
/// appends day-run slices of several badges' batches into one astronaut's
/// columns (the day-9 swap, F reusing C's badge); the derive stage sorts
/// them by time.
struct PersonColumns {
  std::vector<double> obs_t;
  std::vector<io::BeaconId> obs_beacon;
  std::vector<std::int8_t> obs_rssi;

  std::vector<double> audio_t;
  std::vector<float> audio_level_db;
  std::vector<float> audio_voiced;
  std::vector<float> audio_f0;

  std::vector<double> motion_t;
  std::vector<float> motion_accel_var;
  std::vector<float> motion_step_hz;
};

/// One badge's rectified, worn-filtered streams in columnar form, plus
/// the mission-day runs of each stream.
struct RecordBatch {
  io::BadgeId badge = 0;
  PersonColumns cols;
  std::vector<DayRun> obs_days;
  std::vector<DayRun> audio_days;
  std::vector<DayRun> motion_days;

  /// Build the batch for one badge: rectify every beacon/audio/motion
  /// record with `fit`, keep only records inside the sorted `worn`
  /// intervals, in card order, and compute each stream's day runs. Each
  /// column reserves its card stream's length and appends the kept
  /// records, so memory past them is reserved but never touched.
  [[nodiscard]] static RecordBatch build(io::BadgeId badge, const badge::SdCard& card,
                                         const timesync::ClockFit& fit,
                                         const std::vector<std::pair<double, double>>& worn);
};

/// Sort each of a PersonColumns' three column groups by time. Strictly
/// increasing timestamps have no ties, so the sorted permutation is unique
/// and std::sort would return the input unchanged — skipping it is
/// bit-identical, and the common case when one badge feeds the astronaut
/// (streams are recorded in time order and a monotone fit keeps them that
/// way). Any inversion or tie gathers the group into row structs, runs
/// std::sort by time and scatters the permutation back. std::sort's tie
/// order (several beacons heard in the same scan share a timestamp) is
/// unspecified but deterministic, a pure function of the comparison
/// outcomes. It picks the winner of a classifier bin between equally
/// loud beacons and the order of the triangulation sums, so tracks and
/// heatmaps depend on it. Keep this gather → std::sort → scatter
/// exactly: a stable sort or an index sort orders the ties differently
/// and moves the outputs tests/repro_test.cpp pins.
void sort_columns(PersonColumns& pc);

}  // namespace hs::core
