// Columnar record batches: the struct-of-arrays form of one badge's
// rectified, worn-filtered record streams.
//
// Attributing a record costs a clock-rectify call, an ownership lookup (a
// linear scan over the schedule) and a mission-day division. A
// RecordBatch restructures the work so the rectify is paid once per
// *column pass* and the rest once per *badge-day run*: build() streams
// each SD-card record stream once into
// contiguous columns (timestamps, beacon ids, RSSI, audio/motion
// features), and records where the mission-day boundaries fall, so the
// attribute stage resolves ownership per day-run and the DSP folds run
// over plain contiguous arrays the compiler can vectorize (explicit
// SSE2/NEON for the exact predicate kernels lives in util/simd.hpp).
//
// Ownership rule (docs/CONCURRENCY.md): a batch and its arena belong to
// exactly one pipeline shard. Columns point into the arena, so nothing
// outlives it — shards copy the slices they keep (per-astronaut
// contributions) before the arena dies. No cross-shard aliasing, ever.
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
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "badge/sdcard.hpp"
#include "io/records.hpp"
#include "timesync/estimator.hpp"
#include "util/units.hpp"

namespace hs::core {

/// Bump allocator backing one batch's columns: cache-line-aligned slabs,
/// geometric growth, no per-column frees (the whole arena dies at once
/// with its owning shard). Alignment is 64 bytes so every column start is
/// friendly to both cache lines and any vector width we compile for.
class ColumnArena {
 public:
  static constexpr std::size_t kAlignment = 64;

  explicit ColumnArena(std::size_t initial_bytes = 1 << 20) : slab_bytes_(initial_bytes) {}

  ColumnArena(const ColumnArena&) = delete;
  ColumnArena& operator=(const ColumnArena&) = delete;
  ColumnArena(ColumnArena&&) = default;
  ColumnArena& operator=(ColumnArena&&) = default;

  /// Uninitialized, 64-byte-aligned storage for `n` elements of T.
  /// Returns a valid (non-null) pointer even for n == 0 so empty columns
  /// still have an address.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena columns are never destroyed individually");
    const std::size_t bytes = (n * sizeof(T) + kAlignment - 1) / kAlignment * kAlignment;
    if (offset_ + bytes > capacity_ || current_ == nullptr) grow(bytes);
    T* out = reinterpret_cast<T*>(current_ + offset_);
    offset_ += bytes;
    used_ += bytes;
    return out;
  }

  /// Bytes handed out across all slabs (allocation accounting, not
  /// reserved capacity).
  [[nodiscard]] std::size_t bytes_used() const { return used_; }
  /// Bytes reserved across all slabs.
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }

 private:
  struct Free {
    void operator()(void* p) const { ::operator delete[](p, std::align_val_t{kAlignment}); }
  };
  using Slab = std::unique_ptr<std::byte, Free>;

  void grow(std::size_t at_least) {
    std::size_t size = slab_bytes_;
    while (size < at_least) size *= 2;
    slab_bytes_ = size * 2;  // geometric growth for the next slab
    slabs_.emplace_back(
        static_cast<std::byte*>(::operator new[](size, std::align_val_t{kAlignment})));
    current_ = slabs_.back().get();
    capacity_ = size;
    offset_ = 0;
    reserved_ += size;
  }

  std::vector<Slab> slabs_;
  std::byte* current_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;
  std::size_t slab_bytes_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

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

/// Beacon-observation columns (rectified seconds, beacon id, RSSI).
struct ObsColumns {
  double* t_s = nullptr;
  io::BeaconId* beacon = nullptr;
  std::int8_t* rssi_dbm = nullptr;
  std::size_t size = 0;
  std::vector<DayRun> days;
};

/// Audio-frame feature columns.
struct AudioColumns {
  double* t_s = nullptr;
  float* level_db = nullptr;
  float* voiced_fraction = nullptr;
  float* f0_hz = nullptr;
  std::size_t size = 0;
  std::vector<DayRun> days;
};

/// Motion-frame feature columns.
struct MotionColumns {
  double* t_s = nullptr;
  float* accel_var = nullptr;
  float* step_freq_hz = nullptr;
  std::size_t size = 0;
  std::vector<DayRun> days;
};

/// One badge's rectified, worn-filtered streams in columnar form, plus
/// the mission-day runs of each stream. Columns live in the arena passed
/// to build(); the batch holds raw pointers and must not outlive it.
struct RecordBatch {
  io::BadgeId badge = 0;
  ObsColumns obs;
  AudioColumns audio;
  MotionColumns motion;

  [[nodiscard]] std::size_t total_records() const { return obs.size + audio.size + motion.size; }

  /// Build the batch for one badge: rectify every beacon/audio/motion
  /// record with `fit`, keep only records inside the sorted `worn`
  /// intervals, write the survivors into arena-backed columns in card
  /// order, and compute each stream's day runs.
  [[nodiscard]] static RecordBatch build(io::BadgeId badge, const badge::SdCard& card,
                                         const timesync::ClockFit& fit,
                                         const std::vector<std::pair<double, double>>& worn,
                                         ColumnArena& arena);
};

/// Growable per-astronaut record columns. The attribute stage
/// appends day-run slices from several badges' batches (the day-9 swap, F
/// reusing C's badge), the derive stage sorts them by time.
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

  [[nodiscard]] std::size_t total_records() const {
    return obs_t.size() + audio_t.size() + motion_t.size();
  }
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
