// Unit + property tests for walking and speech detection, including the
// paper's exact 60 dB / 20% / 15 s speech rule.
#include <gtest/gtest.h>

#include <vector>

#include "dsp/speech.hpp"
#include "dsp/walking.hpp"

namespace hs::dsp {
namespace {

io::MotionFrame motion(float var, float step_hz) {
  io::MotionFrame f;
  f.accel_var = var;
  f.step_freq_hz = step_hz;
  return f;
}

TEST(Walking, DetectsGait) {
  WalkingDetector d;
  EXPECT_TRUE(d.is_walking(motion(3.5F, 1.8F)));
}

TEST(Walking, RejectsFidgeting) {
  WalkingDetector d;
  EXPECT_FALSE(d.is_walking(motion(0.3F, 1.8F)));  // periodic but weak
  EXPECT_FALSE(d.is_walking(motion(3.5F, 0.0F)));  // strong but aperiodic
}

TEST(Walking, RejectsOutOfBandPeriodicity) {
  WalkingDetector d;
  EXPECT_FALSE(d.is_walking(motion(3.5F, 0.5F)));  // slower than human gait
  EXPECT_FALSE(d.is_walking(motion(3.5F, 4.0F)));  // machinery vibration
}

TEST(Walking, FractionAndCount) {
  // Fig. 5's walking fraction is the column count over the frames counted.
  WalkingDetector d;
  const std::vector<io::MotionFrame> frames{motion(3.0F, 1.8F), motion(0.1F, 0.0F),
                                            motion(2.5F, 2.0F), motion(0.2F, 0.0F)};
  std::vector<float> step;
  std::vector<float> var;
  for (const auto& f : frames) {
    step.push_back(f.step_freq_hz);
    var.push_back(f.accel_var);
  }
  const std::size_t walking = d.count_walking(step.data(), var.data(), frames.size());
  EXPECT_EQ(walking, 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(walking) / static_cast<double>(frames.size()), 0.5);
  EXPECT_EQ(d.count_walking(step.data(), var.data(), 0), 0u);
}

/// Property: classification boundary follows the configured band edges.
class StepFreqSweep : public ::testing::TestWithParam<double> {};

TEST_P(StepFreqSweep, BandEdges) {
  WalkingDetector d;
  const double hz = GetParam();
  const bool in_band = hz >= d.params().min_step_hz && hz <= d.params().max_step_hz;
  EXPECT_EQ(d.is_walking(motion(5.0F, static_cast<float>(hz))), in_band) << hz;
}

INSTANTIATE_TEST_SUITE_P(Frequencies, StepFreqSweep,
                         ::testing::Values(0.5, 0.89, 0.91, 1.5, 2.5, 3.19, 3.21, 5.0));

// ------------------------------------------------------------------- speech

/// One test audio frame on the rectified timeline.
struct Frame {
  double t_s = 0.0;
  float level_db = 0.0F;
  float voiced_fraction = 0.0F;
  float f0_hz = 0.0F;
};

Frame frame(double t, float db, float voiced, float f0 = 120.0F) {
  return Frame{t, db, voiced, f0};
}

/// Splits frames into the feature columns SpeechDetector::analyze reads.
std::vector<SpeechInterval> analyze(const SpeechDetector& d, const std::vector<Frame>& frames,
                                    double t0_s) {
  std::vector<double> t;
  std::vector<float> level;
  std::vector<float> voiced;
  std::vector<float> f0;
  for (const auto& f : frames) {
    t.push_back(f.t_s);
    level.push_back(f.level_db);
    voiced.push_back(f.voiced_fraction);
    f0.push_back(f.f0_hz);
  }
  return d.analyze(t.data(), level.data(), voiced.data(), f0.data(), t.size(), t0_s);
}

TEST(Speech, PaperRuleDetectsConversation) {
  SpeechDetector d;
  std::vector<Frame> frames;
  // 15 frames: 4 voiced at 65 dB (>20% coverage).
  for (int i = 0; i < 15; ++i) {
    frames.push_back(frame(i, i < 4 ? 65.0F : 35.0F, i < 4 ? 0.7F : 0.0F));
  }
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_TRUE(intervals[0].speech);
  EXPECT_EQ(intervals[0].voiced_frames, 4u);
  EXPECT_NEAR(intervals[0].mean_voiced_db, 65.0, 1e-6);
}

TEST(Speech, BelowCoverageRejected) {
  SpeechDetector d;
  std::vector<Frame> frames;
  // Only 2 of 15 voiced frames: 13% < 20%.
  for (int i = 0; i < 15; ++i) {
    frames.push_back(frame(i, i < 2 ? 65.0F : 35.0F, i < 2 ? 0.7F : 0.0F));
  }
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_FALSE(intervals[0].speech);
}

TEST(Speech, QuietVoiceRejected) {
  SpeechDetector d;
  std::vector<Frame> frames;
  // Plenty of voiced frames but at 55 dB — conversation beyond ~2.5 m.
  for (int i = 0; i < 15; ++i) frames.push_back(frame(i, 55.0F, 0.7F));
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_FALSE(intervals[0].speech);
}

TEST(Speech, ExactBoundary) {
  SpeechDetector d;
  // Exactly 3 of 15 one-second frames voiced = exactly 20% coverage at
  // exactly 60 dB: the rule says "at least", so this is speech.
  std::vector<Frame> frames;
  for (int i = 0; i < 15; ++i) {
    frames.push_back(frame(i, i < 3 ? 60.0F : 30.0F, i < 3 ? 0.5F : 0.0F));
  }
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_TRUE(intervals[0].speech);
}

TEST(Speech, IntervalsAlignedToOrigin) {
  SpeechDetector d;
  std::vector<Frame> frames;
  for (int i = 0; i < 45; ++i) frames.push_back(frame(100.0 + i, 65.0F, 0.7F));
  const auto intervals = analyze(d, frames, 100.0);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_DOUBLE_EQ(intervals[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(intervals[1].start_s, 115.0);
  EXPECT_DOUBLE_EQ(intervals[2].start_s, 130.0);
}

TEST(Speech, GapsProduceNoEmptyIntervals) {
  SpeechDetector d;
  std::vector<Frame> frames;
  for (int i = 0; i < 15; ++i) frames.push_back(frame(i, 65.0F, 0.7F));
  for (int i = 0; i < 15; ++i) frames.push_back(frame(300.0 + i, 65.0F, 0.7F));
  const auto intervals = analyze(d, frames, 0.0);
  EXPECT_EQ(intervals.size(), 2u);  // the silent gap yields nothing
}

TEST(Speech, DominantF0Voted) {
  SpeechDetector d;
  std::vector<Frame> frames;
  for (int i = 0; i < 15; ++i) {
    // 5 frames of a 210 Hz speaker, 3 frames of a 120 Hz speaker.
    const bool female = i < 5;
    const bool male = i >= 5 && i < 8;
    frames.push_back(frame(i, (female || male) ? 66.0F : 30.0F,
                           (female || male) ? 0.7F : 0.0F, female ? 210.0F : 120.0F));
  }
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].dominant_f0_hz, 210.0);
}

TEST(Speech, SpeechFraction) {
  std::vector<SpeechInterval> intervals(4);
  intervals[0].speech = true;
  intervals[3].speech = true;
  EXPECT_DOUBLE_EQ(SpeechDetector::speech_fraction(intervals), 0.5);
  EXPECT_DOUBLE_EQ(SpeechDetector::speech_fraction({}), 0.0);
}

TEST(Speech, EmptyInput) {
  SpeechDetector d;
  EXPECT_TRUE(analyze(d, {}, 0.0).empty());
}

/// Property: detection is monotone in loudness — raising every frame's
/// level never turns speech into silence.
class LoudnessSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoudnessSweep, MonotoneInLevel) {
  SpeechDetector d;
  const auto db = static_cast<float>(GetParam());
  std::vector<Frame> frames;
  for (int i = 0; i < 15; ++i) frames.push_back(frame(i, db, i < 6 ? 0.7F : 0.0F));
  const auto intervals = analyze(d, frames, 0.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].speech, db >= 60.0F) << db;
}

INSTANTIATE_TEST_SUITE_P(Levels, LoudnessSweep,
                         ::testing::Values(40.0, 55.0, 59.5, 60.0, 62.0, 70.0, 80.0));

// ------------------------------------------------------------ voice classes

TEST(Voice, ClassifiesTypicalRanges) {
  EXPECT_EQ(classify_voice(110.0), VoiceClass::kMale);
  EXPECT_EQ(classify_voice(150.0), VoiceClass::kMale);
  EXPECT_EQ(classify_voice(210.0), VoiceClass::kFemale);
  EXPECT_EQ(classify_voice(250.0), VoiceClass::kFemale);
}

TEST(Voice, OutOfRangeIsUnknown) {
  EXPECT_EQ(classify_voice(0.0), VoiceClass::kUnknown);
  EXPECT_EQ(classify_voice(60.0), VoiceClass::kUnknown);
  EXPECT_EQ(classify_voice(162.0), VoiceClass::kUnknown);  // the ambiguous gap
  EXPECT_EQ(classify_voice(400.0), VoiceClass::kUnknown);
}

TEST(Voice, DominantClassByMajority) {
  std::vector<SpeechInterval> intervals(5);
  for (std::size_t i = 0; i < 5; ++i) {
    intervals[i].speech = true;
    intervals[i].dominant_f0_hz = i < 3 ? 220.0 : 120.0;
  }
  EXPECT_EQ(dominant_voice_class(intervals), VoiceClass::kFemale);
}

TEST(Voice, SilentIntervalsIgnored) {
  std::vector<SpeechInterval> intervals(3);
  intervals[0].speech = false;
  intervals[0].dominant_f0_hz = 220.0;  // not speech: must not vote
  intervals[1].speech = true;
  intervals[1].dominant_f0_hz = 120.0;
  EXPECT_EQ(dominant_voice_class(intervals), VoiceClass::kMale);
}

TEST(Voice, EmptyIsUnknown) { EXPECT_EQ(dominant_voice_class({}), VoiceClass::kUnknown); }

}  // namespace
}  // namespace hs::dsp
