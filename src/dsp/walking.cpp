#include "dsp/walking.hpp"

namespace hs::dsp {

bool WalkingDetector::is_walking(const io::MotionFrame& frame) const {
  return frame.step_freq_hz >= params_.min_step_hz && frame.step_freq_hz <= params_.max_step_hz &&
         frame.accel_var >= params_.min_accel_var;
}

std::size_t WalkingDetector::count_walking(const float* step_freq_hz, const float* accel_var,
                                           std::size_t n) const {
  // Same expression as is_walking: each float promotes to double against
  // the double thresholds (0.9 is not a float, so comparing in float would
  // count 0.9f), and NaN compares false.
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (step_freq_hz[i] >= params_.min_step_hz && step_freq_hz[i] <= params_.max_step_hz &&
        accel_var[i] >= params_.min_accel_var) {
      ++count;
    }
  }
  return count;
}

}  // namespace hs::dsp
