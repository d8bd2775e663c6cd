// Walking classification from accelerometer feature frames (Fig. 4,
// Table I column c).
//
// A one-second frame counts as walking when the on-device feature
// extraction found gait-band periodicity (step frequency in the human
// locomotion range) with enough magnitude variance to rule out gesturing.
#pragma once

#include <cstddef>

#include "io/records.hpp"

namespace hs::dsp {

struct WalkingParams {
  double min_step_hz = 0.9;
  double max_step_hz = 3.2;
  double min_accel_var = 1.2;  ///< (m/s^2)^2; below this it's fidgeting
};

// Thread-safety: parameters are fixed at construction and every method is
// const — safe to share across concurrent figure shards.
class WalkingDetector {
 public:
  explicit WalkingDetector(WalkingParams params = {}) : params_(params) {}

  [[nodiscard]] bool is_walking(const io::MotionFrame& frame) const;

  /// Count walking frames over contiguous feature columns (a RecordBatch
  /// or PersonColumns slice): the is_walking predicate on each index, so
  /// the count equals the per-frame one (NaN never counts).
  [[nodiscard]] std::size_t count_walking(const float* step_freq_hz, const float* accel_var,
                                          std::size_t n) const;

  [[nodiscard]] const WalkingParams& params() const { return params_; }

 private:
  WalkingParams params_;
};

}  // namespace hs::dsp
