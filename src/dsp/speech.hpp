// Speech detection (Fig. 5, Fig. 6, Table I column b).
//
// The paper's exact rule: "A 15 s interval is considered as speech if there
// are voice frequencies detected of at least 60 dB and for at least 20% of
// the interval. The boundary values were determined experimentally and
// correspond to a conversation at a distance of at most 2.5 m."
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "io/records.hpp"

namespace hs::dsp {

struct SpeechParams {
  double interval_s = 15.0;       ///< analysis interval length
  double min_level_db = 60.0;     ///< voice-band frames below this don't count
  double min_coverage = 0.20;     ///< fraction of the interval that must be voiced
  /// A frame is "voiced" when at least this fraction of it has voice-band
  /// energy (frames are 1 s; speech comes in bursts).
  double min_voiced_fraction = 0.25;
};

/// Decision for one 15 s interval.
struct SpeechInterval {
  double start_s = 0.0;
  bool speech = false;
  /// Mean level over the voiced frames (0 when none) — Fig. 5's loudness.
  double mean_voiced_db = 0.0;
  /// Dominant f0 over voiced frames (Hz, 0 when none) — speaker/gender cue.
  double dominant_f0_hz = 0.0;
  std::uint32_t voiced_frames = 0;
  std::uint32_t total_frames = 0;

  friend bool operator==(const SpeechInterval&, const SpeechInterval&) = default;
};

/// Speaker voice classification from the dominant fundamental frequency —
/// the paper's microphone frontend identifies "the speaker during a
/// multi-person conversation" and distinguishes "between male and female
/// speakers". Typical adult ranges: male ~85-155 Hz, female ~165-255 Hz.
enum class VoiceClass { kUnknown, kMale, kFemale };

[[nodiscard]] constexpr VoiceClass classify_voice(double f0_hz) {
  if (f0_hz >= 75.0 && f0_hz <= 160.0) return VoiceClass::kMale;
  if (f0_hz >= 165.0 && f0_hz <= 270.0) return VoiceClass::kFemale;
  return VoiceClass::kUnknown;
}

/// Majority voice class over a set of speech intervals (their dominant
/// f0 votes); kUnknown when no voiced intervals are present.
[[nodiscard]] VoiceClass dominant_voice_class(const std::vector<SpeechInterval>& intervals);

// Thread-safety: parameters are fixed at construction and every method is
// const — one detector serves all per-astronaut shards concurrently.
class SpeechDetector {
 public:
  explicit SpeechDetector(SpeechParams params = {}) : params_(params) {}

  /// Segment a time-sorted frame stream, given as contiguous feature
  /// columns (a RecordBatch or PersonColumns slice; timestamps on the
  /// rectified reference timeline), into consecutive intervals aligned to
  /// interval_s boundaries relative to origin t0_s. Intervals with no
  /// frames at all (badge inactive) are omitted. A frame is voiced when
  /// voiced_fraction >= min_voiced_fraction and level_db >= min_level_db,
  /// each float compared as a double (NaN is never voiced).
  [[nodiscard]] std::vector<SpeechInterval> analyze(const double* t_s, const float* level_db,
                                                    const float* voiced_fraction,
                                                    const float* f0_hz, std::size_t n,
                                                    double t0_s) const;

  /// Fraction of intervals flagged as speech (0 when empty).
  [[nodiscard]] static double speech_fraction(const std::vector<SpeechInterval>& intervals);

  [[nodiscard]] const SpeechParams& params() const { return params_; }

 private:
  SpeechParams params_;
};

}  // namespace hs::dsp
