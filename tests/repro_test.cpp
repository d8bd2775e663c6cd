// Reproduction tests: the full 14-day ICAres-1 mission, checked against
// every quantitative claim of the paper's Section V. These assert the
// *shape* of each result (who wins, by roughly what factor), not exact
// numbers — the substrate is a simulator, not the authors' habitat.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "mesh/chunk.hpp"

namespace hs::core {
namespace {

using habitat::RoomId;

class IcaresReproduction : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(run_icares_mission(42));
    pipeline_ = new AnalysisPipeline(*dataset_);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete dataset_;
    pipeline_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static AnalysisPipeline* pipeline_;
};

Dataset* IcaresReproduction::dataset_ = nullptr;
AnalysisPipeline* IcaresReproduction::pipeline_ = nullptr;

// --- Section V, paragraph 1: dataset statistics -----------------------------

TEST_F(IcaresReproduction, TotalDataNear150GiB) {
  const double gib = to_gib(dataset_->total_bytes);
  EXPECT_GT(gib, 120.0);
  EXPECT_LT(gib, 180.0);
}

TEST_F(IcaresReproduction, WornAndActiveFractions) {
  const auto stats = pipeline_->dataset_stats();
  // Paper: worn 63% of daytime, active 84%.
  EXPECT_NEAR(stats.worn_of_daytime, 0.63, 0.10);
  EXPECT_NEAR(stats.active_of_daytime, 0.84, 0.10);
  EXPECT_GT(stats.active_of_daytime, stats.worn_of_daytime);
}

TEST_F(IcaresReproduction, WearComplianceDeclines) {
  const auto stats = pipeline_->dataset_stats();
  // Paper: ~80% early, ~50% late.
  const auto& by_day = stats.worn_by_day;
  ASSERT_GE(by_day.size(), 13u);
  // Two-day means: single days carry sampling noise (6 crew x ~9 slots).
  const double early = (by_day[0] + by_day[1]) / 2.0;
  const double late = (by_day[by_day.size() - 2] + by_day.back()) / 2.0;
  EXPECT_NEAR(early, 0.80, 0.12);
  EXPECT_NEAR(late, 0.50, 0.14);
  EXPECT_GT(early, late + 0.15);
}

// --- Fig. 2 -----------------------------------------------------------------

TEST_F(IcaresReproduction, OfficeKitchenPassagesDominate) {
  const auto m = pipeline_->fig2_transitions();
  const int office_kitchen =
      m.count(RoomId::kOffice, RoomId::kKitchen) + m.count(RoomId::kKitchen, RoomId::kOffice);
  // Compare against every other unordered pair of Fig. 2 rooms.
  for (const auto a : habitat::fig2_rooms()) {
    for (const auto b : habitat::fig2_rooms()) {
      if (a >= b) continue;
      if ((a == RoomId::kOffice && b == RoomId::kKitchen) ||
          (a == RoomId::kKitchen && b == RoomId::kOffice)) {
        continue;
      }
      const int pair = m.count(a, b) + m.count(b, a);
      EXPECT_GT(office_kitchen, pair)
          << habitat::room_name(a) << "<->" << habitat::room_name(b);
    }
  }
  // Workshop<->kitchen is the runner-up axis the paper names.
  const int workshop_kitchen =
      m.count(RoomId::kWorkshop, RoomId::kKitchen) + m.count(RoomId::kKitchen, RoomId::kWorkshop);
  EXPECT_GT(workshop_kitchen, 40);
}

TEST_F(IcaresReproduction, NoTransitionsThroughExcludedAtrium) {
  const auto m = pipeline_->fig2_transitions();
  EXPECT_EQ(m.outgoing(RoomId::kAtrium), 0);
  EXPECT_EQ(m.incoming(RoomId::kAtrium), 0);
}

// --- Section V dwell finding -------------------------------------------------

TEST_F(IcaresReproduction, OfficeAndWorkshopStaysLongerThanBiolab) {
  const auto dwell = pipeline_->dwell_stats();
  // Paper: biolab stays ~2.5 h; office/workshop stays about twice as long.
  // In our generative model the workshop carries the "absorbed in work"
  // pattern most strongly; the office also serves as the evening report
  // room, which shortens its typical stay (documented in EXPERIMENTS.md).
  EXPECT_GT(dwell.typical_biolab_h, 1.2);
  EXPECT_LT(dwell.typical_biolab_h, 4.0);
  EXPECT_GT(dwell.typical_workshop_h, 1.45 * dwell.typical_biolab_h);
  EXPECT_GT(dwell.typical_office_h, 0.9 * dwell.typical_biolab_h);
}

// --- Fig. 3 -----------------------------------------------------------------

TEST_F(IcaresReproduction, ImpairedAstronautKeepsToRoomCentres) {
  // A "tended to stay in the middle of a room, usually did not approach
  // corners": A's heatmap mass sits closer to room centres than D's
  // (mass-weighted distance from the room centre, normalized by the room
  // half-diagonal).
  const auto& habitat = dataset_->habitat;
  auto spread = [&](std::size_t astronaut) {
    const auto heat = pipeline_->fig3_heatmap(astronaut);
    double weighted = 0.0;
    double total = 0.0;
    for (int y = 0; y < habitat.grid_height(); ++y) {
      for (int x = 0; x < habitat.grid_width(); ++x) {
        const double v = heat.at({x, y});
        if (v <= 0.0) continue;
        const Vec2 p = habitat.cell_center({x, y});
        const auto room = habitat.room_at(p);
        if (room == RoomId::kNone || room == RoomId::kAtrium) continue;
        const auto& b = habitat.room(room).bounds;
        const double half_diag = std::hypot(b.width(), b.height()) / 2.0;
        weighted += v * distance(p, b.center()) / half_diag;
        total += v;
      }
    }
    return total > 0.0 ? weighted / total : 0.0;
  };
  const double a_spread = spread(0);
  const double d_spread = spread(3);
  EXPECT_GT(a_spread, 0.0);
  EXPECT_LT(a_spread, 0.85 * d_spread);
}

TEST_F(IcaresReproduction, HeatmapConcentratedInWorkRooms) {
  const auto heat = pipeline_->fig3_heatmap(0);
  const double work = heat.room_total(RoomId::kBiolab) + heat.room_total(RoomId::kOffice) +
                      heat.room_total(RoomId::kKitchen) + heat.room_total(RoomId::kAtrium) +
                      heat.room_total(RoomId::kWorkshop);
  EXPECT_GT(work, 0.7 * heat.total_seconds());
}

// --- Fig. 4 -----------------------------------------------------------------

TEST_F(IcaresReproduction, WalkingOrderingMatchesPaper) {
  const auto series = pipeline_->fig4_walking();
  // Days 2-8 (indices 0-6): A lowest every day; D and F above B and E on
  // average; C (days 2-4) the highest.
  double a_sum = 0.0;
  double be_sum = 0.0;
  double df_sum = 0.0;
  int days = 0;
  for (int d = 0; d <= 6; ++d) {
    const auto& row = series.values[static_cast<std::size_t>(d)];
    if (row[0] < 0 || row[1] < 0) continue;
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      if (i == 0 || row[i] < 0) continue;
      EXPECT_LT(row[0], row[i]) << "day " << (d + 2) << " astronaut " << i;
    }
    a_sum += row[0];
    be_sum += (row[1] + row[4]) / 2.0;
    df_sum += (row[3] + row[5]) / 2.0;
    ++days;
  }
  ASSERT_GT(days, 4);
  EXPECT_GT(df_sum, be_sum * 1.2);  // the paper's two distinct mobility pairs
  EXPECT_LT(a_sum / days, 0.05);    // A is a few percent
}

TEST_F(IcaresReproduction, CalmDayThreeDip) {
  const auto series = pipeline_->fig4_walking();
  // Crew mean walking on day 3 below days 2 and 4 (the calm before C's death).
  auto crew_mean = [&](int day) {
    const auto& row = series.values[static_cast<std::size_t>(day - 2)];
    double sum = 0.0;
    int n = 0;
    for (double v : row) {
      if (v >= 0) {
        sum += v;
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_LT(crew_mean(3), crew_mean(2));
  EXPECT_LT(crew_mean(3), crew_mean(4) + 0.005);
}

// --- Fig. 5 / the day-4 events ------------------------------------------------

TEST_F(IcaresReproduction, ConsolationMeetingDetected) {
  const auto meetings = pipeline_->meetings_on(4);
  const sna::Meeting* consolation = nullptr;
  const sna::Meeting* lunch = nullptr;
  for (const auto& m : meetings) {
    if (m.room != RoomId::kKitchen) continue;
    const double start_tod = m.start_s - std::floor(m.start_s / 86400.0) * 86400.0;
    // >= 3 badge-visible participants: wear compliance means not every
    // attendee shows up in the localization data.
    if (start_tod > 15.0 * 3600.0 && start_tod < 16.0 * 3600.0 && m.participants.size() >= 3) {
      consolation = &m;
    }
    if (start_tod > 12.3 * 3600.0 && start_tod < 13.0 * 3600.0 && m.participants.size() >= 3) {
      lunch = &m;
    }
  }
  ASSERT_NE(consolation, nullptr) << "no unplanned gathering found at ~15:20";
  ASSERT_NE(lunch, nullptr);
  // "The conversation was clearly quieter than, for instance, during lunch."
  const auto consolation_dyn = pipeline_->meeting_dynamics(*consolation);
  const auto lunch_dyn = pipeline_->meeting_dynamics(*lunch);
  EXPECT_GT(consolation_dyn.speech_fraction, 0.5);  // they did talk
  EXPECT_LT(consolation_dyn.mean_loudness_db, lunch_dyn.mean_loudness_db - 1.5);
}

// --- Fig. 6 -----------------------------------------------------------------

TEST_F(IcaresReproduction, SpeechDeclinesTowardMissionEnd) {
  const auto series = pipeline_->fig6_speech();
  auto crew_mean = [&](int day) {
    const auto& row = series.values[static_cast<std::size_t>(day - series.first_day)];
    double sum = 0.0;
    int n = 0;
    for (double v : row) {
      if (v >= 0) {
        sum += v;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double early = (crew_mean(2) + crew_mean(3) + crew_mean(4)) / 3.0;
  const double late = (crew_mean(12) + crew_mean(13) + crew_mean(14)) / 3.0;
  EXPECT_LT(late, 0.8 * early);
}

TEST_F(IcaresReproduction, FoodShortageDaysQuietest) {
  const auto series = pipeline_->fig6_speech();
  auto crew_mean = [&](int day) {
    const auto& row = series.values[static_cast<std::size_t>(day - series.first_day)];
    double sum = 0.0;
    int n = 0;
    for (double v : row) {
      if (v >= 0) {
        sum += v;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  // Days 11-12 sit below the neighbouring days' mean.
  const double scripted = (crew_mean(11) + crew_mean(12)) / 2.0;
  const double neighbours = (crew_mean(9) + crew_mean(10)) / 2.0;
  EXPECT_LT(scripted, neighbours);
}

TEST_F(IcaresReproduction, CTalksMostWhileAboard) {
  // Across C's days aboard (2-4), C's mean speech fraction tops the crew.
  const auto series = pipeline_->fig6_speech();
  std::array<double, crew::kCrewSize> mean{};
  std::array<int, crew::kCrewSize> days{};
  for (int day = 2; day <= 4; ++day) {
    const auto& row = series.values[static_cast<std::size_t>(day - series.first_day)];
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      if (row[i] < 0) continue;
      mean[i] += row[i];
      ++days[i];
    }
  }
  ASSERT_GT(days[2], 0);
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    if (i == 2 || days[i] == 0) continue;
    EXPECT_GT(mean[2] / days[2], mean[i] / days[i]) << "astronaut " << i;
  }
}

// --- pairwise relations -------------------------------------------------------

TEST_F(IcaresReproduction, AandFTalkPrivatelyFarMoreThanDandE) {
  const auto pairs = pipeline_->pair_stats();
  // Paper: ~5 h more private conversation, ~10 h more total meeting time.
  EXPECT_GT(pairs.af_private_h, pairs.de_private_h + 2.0);
  EXPECT_GT(pairs.af_meetings_h, pairs.de_meetings_h + 4.0);
}

// --- Table I -------------------------------------------------------------------

TEST_F(IcaresReproduction, Table1MatchesPaperShape) {
  const auto rows = pipeline_->table1();
  ASSERT_EQ(rows.size(), 6u);

  // C: social columns n/a; talking and walking both 1.00 (the maximum).
  EXPECT_FALSE(rows[2].has_social);
  EXPECT_NEAR(rows[2].talking, 1.0, 1e-9);
  EXPECT_NEAR(rows[2].walking, 1.0, 1e-9);

  // B: the most central and available. B's HITS authority is the crew
  // maximum; company lands in the top cluster (the co-presence rate is
  // noisy across wear-compliance draws — see EXPERIMENTS.md).
  EXPECT_TRUE(rows[1].has_social);
  EXPECT_GT(rows[1].authority, 0.92);
  EXPECT_GT(rows[1].company, 0.85);

  // A: the least mobile of the crew.
  for (std::size_t i = 1; i < crew::kCrewSize; ++i) {
    EXPECT_GT(rows[i].walking, rows[0].walking) << i;
  }
  // The two mobility pairs: D and F clearly above B and E.
  EXPECT_GT(rows[3].walking, rows[1].walking + 0.1);
  EXPECT_GT(rows[5].walking, rows[4].walking + 0.05);

  // E: the quietest of the surviving crew.
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    if (i == 4) continue;
    EXPECT_GE(rows[i].talking, rows[4].talking) << i;
  }

  // All normalized values within [0, 1].
  for (const auto& r : rows) {
    EXPECT_GE(r.company, 0.0);
    EXPECT_LE(r.company, 1.0 + 1e-9);
    EXPECT_GE(r.authority, 0.0);
    EXPECT_LE(r.authority, 1.0 + 1e-9);
  }
}

// --- survey cross-validation (Section IV's methodology) -----------------------

TEST_F(IcaresReproduction, SurveysCorroborateSensorFindings) {
  // "The answers allowed us to interpret and verify the findings obtained
  // through multi-modal sensing": days the badges hear less conversation
  // are days the crew reports lower wellbeing.
  const auto v = pipeline_->survey_validation();
  EXPECT_GT(v.responses, 70u);  // 6 x 3 days + 5 x 11 days
  EXPECT_GT(v.wellbeing_speech_corr, 0.3);
  // Reported badge/habitat comfort declines, mirroring wear compliance.
  EXPECT_LT(v.comfort_slope_per_day, -0.05);
}

TEST_F(IcaresReproduction, VoiceCensusRecoversGenderSplit) {
  // The paper's microphone frontend distinguishes male and female
  // speakers; the crew was 3 women and 3 men. The dominant f0 at each
  // astronaut's own badge recovers the split.
  const auto census = pipeline_->voice_census();
  int female = 0;
  int male = 0;
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    if (census[i] == dsp::VoiceClass::kFemale) ++female;
    if (census[i] == dsp::VoiceClass::kMale) ++male;
  }
  EXPECT_EQ(female, 3);
  EXPECT_EQ(male, 3);
  // And the specific voices match the profiles (A, D, F female).
  EXPECT_EQ(census[0], dsp::VoiceClass::kFemale);
  EXPECT_EQ(census[1], dsp::VoiceClass::kMale);
  EXPECT_EQ(census[5], dsp::VoiceClass::kFemale);
}

// --- the paper's deployment mishaps actually happened -------------------------

TEST_F(IcaresReproduction, BadgeSwapDayRecorded) {
  // On day 9, badge 0 was worn by B and badge 1 by A (corrected schedule).
  EXPECT_EQ(dataset_->ownership.owner(0, 9), 1u);
  EXPECT_EQ(dataset_->ownership.owner(1, 9), 0u);
}

TEST_F(IcaresReproduction, DeadCsBadgeReusedByF) {
  EXPECT_EQ(dataset_->ownership.owner(2, 4), 2u);
  EXPECT_FALSE(dataset_->ownership.owner(2, 5).has_value());
  EXPECT_EQ(dataset_->ownership.owner(2, 10), 5u);
  // And badge 2 really produced data again after day 6.
  const auto* log = dataset_->log(2);
  ASSERT_NE(log, nullptr);
  bool late_obs = false;
  for (const auto& o : log->card.beacon_obs()) {
    if (o.t > static_cast<io::LocalMs>(day_start(7) / kMillisecond)) late_obs = true;
  }
  EXPECT_TRUE(late_obs);
}

TEST_F(IcaresReproduction, CsDataEndsAtDeath) {
  // C's own data (corrected attribution) must not extend past day 4.
  const auto& track = pipeline_->track(2);
  ASSERT_FALSE(track.empty());
  EXPECT_LT(track.back().end_s, static_cast<double>(day_start(5)) / 1e6);
}

// --- exact output pin -----------------------------------------------------------

/// Byte buffer for mesh::fnv1a: integers as 8 little-endian bytes, doubles
/// as their exact bit patterns, so one flipped bit anywhere changes it.
class DigestBytes {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void series(const AnalysisPipeline::DailySeries& s) {
    u64(static_cast<std::uint64_t>(s.first_day));
    for (const auto& day : s.values) {
      for (const double v : day) f64(v);
    }
  }
  [[nodiscard]] std::uint64_t fnv1a() const { return mesh::fnv1a(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

TEST_F(IcaresReproduction, ArtifactDigestIsPinned) {
  // The shape tests above tolerate drift; this one does not. Every value
  // the pipeline hands out for the seed-42 mission folds into one digest:
  // tracks, speech intervals, every artifacts() field, the Fig. 5
  // timeline, meetings and their dynamics for every day, the voice census
  // and the gap report. A change that moves any output bit must update
  // the constant and say why.
  DigestBytes d;
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    d.u64(pipeline_->track(i).size());
    for (const auto& s : pipeline_->track(i)) {
      d.u64(static_cast<std::uint64_t>(s.room));
      d.f64(s.start_s);
      d.f64(s.end_s);
    }
    d.u64(pipeline_->speech_intervals(i).size());
    for (const auto& iv : pipeline_->speech_intervals(i)) {
      d.f64(iv.start_s);
      d.u64(iv.speech ? 1 : 0);
      d.f64(iv.mean_voiced_db);
      d.f64(iv.dominant_f0_hz);
      d.u64(iv.voiced_frames);
      d.u64(iv.total_frames);
    }
  }

  const auto a = pipeline_->artifacts();
  for (const auto& row : a.fig2.counts()) {
    for (const int c : row) d.u64(static_cast<std::uint64_t>(c));
  }
  for (const auto& heat : a.fig3) {
    d.f64(heat.total_seconds());
    for (const auto& row : heat.grid_rows()) {
      for (const double v : row) d.f64(v);
    }
  }
  d.series(a.fig4);
  d.series(a.fig6);
  for (const auto& row : a.table1) {
    d.u64(static_cast<std::uint64_t>(row.id));
    d.u64(row.has_social ? 1 : 0);
    d.f64(row.company);
    d.f64(row.authority);
    d.f64(row.talking);
    d.f64(row.walking);
  }
  d.f64(a.dataset.total_gib);
  d.f64(a.dataset.worn_of_daytime);
  d.f64(a.dataset.active_of_daytime);
  for (const double v : a.dataset.worn_by_day) d.f64(v);
  d.u64(a.dataset.total_records);
  d.f64(a.dwell.typical_biolab_h);
  d.f64(a.dwell.typical_office_h);
  d.f64(a.dwell.typical_workshop_h);
  d.f64(a.pairs.af_private_h);
  d.f64(a.pairs.de_private_h);
  d.f64(a.pairs.af_meetings_h);
  d.f64(a.pairs.de_meetings_h);
  d.f64(a.survey.wellbeing_speech_corr);
  d.f64(a.survey.comfort_slope_per_day);
  d.u64(a.survey.responses);

  for (int day = dataset_->first_day(); day <= dataset_->last_day(); ++day) {
    for (const auto& row : pipeline_->fig5_timeline(day)) {
      for (const auto& bin : row) {
        d.f64(bin.start_s);
        d.u64(static_cast<std::uint64_t>(bin.room));
        d.f64(bin.speech_fraction);
        d.f64(bin.loudness_db);
      }
    }
    for (const auto& m : pipeline_->meetings_on(day)) {
      d.u64(static_cast<std::uint64_t>(m.room));
      d.f64(m.start_s);
      d.f64(m.end_s);
      for (const std::size_t p : m.participants) d.u64(p);
      const auto dyn = pipeline_->meeting_dynamics(m);
      d.f64(dyn.speech_fraction);
      d.f64(dyn.mean_loudness_db);
      for (const double share : dyn.talk_share) d.f64(share);
    }
  }

  for (const auto voice : pipeline_->voice_census()) d.u64(static_cast<std::uint64_t>(voice));
  const auto gaps = pipeline_->gap_report();
  for (const auto& b : gaps.badges) {
    d.u64(b.id);
    d.u64(b.records);
    d.u64(b.dropped_records);
    d.u64(b.truncated_records);
    d.u64(b.sync_samples);
    d.f64(b.fit_residual_ms);
    d.u64(b.fit_stepped ? 1 : 0);
    d.f64(b.recorded_active_s);
    d.f64(b.longest_gap_s);
  }
  d.u64(gaps.total_dropped);
  d.u64(gaps.total_truncated);

  EXPECT_EQ(d.fnv1a(), 0xf2529631eb6d9bdaULL) << std::hex << d.fnv1a();
}

}  // namespace
}  // namespace hs::core
