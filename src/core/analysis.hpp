// The offline sociometric analysis pipeline.
//
// Input: the Dataset (SD cards + beacon survey + ownership schedule).
// Steps: (1) rectify every badge's drifting clock onto the reference
// timeline using the opportunistic sync samples; (2) attribute each
// record to the astronaut who wore the badge that day (corrected
// ownership); (3) keep only records from worn periods; (4) derive room
// tracks, positions, walking, speech; (5) produce every figure and table
// of the paper. The pipeline consumes badge records only — never
// simulator ground truth.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/dataset.hpp"
#include "core/record_batch.hpp"
#include "dsp/speech.hpp"
#include "obs/metrics.hpp"
#include "dsp/walking.hpp"
#include "locate/heatmap.hpp"
#include "locate/room_classifier.hpp"
#include "locate/transitions.hpp"
#include "locate/triangulate.hpp"
#include "sna/copresence.hpp"
#include "sna/hits.hpp"
#include "sna/meetings.hpp"
#include "timesync/estimator.hpp"
#include "util/thread_pool.hpp"

namespace hs::obs {
class Tracer;
}

namespace hs::core {

struct PipelineOptions {
  /// Use the corrected ownership schedule (false: the naive one-badge-one-
  /// owner assumption — the ablation the paper's Section VI-C3 motivates).
  bool corrected_ownership = true;
  /// Rectify badge clocks via the reference badge (false: trust raw local
  /// timestamps — the time-sync ablation).
  bool rectify_clocks = true;
  /// Worker threads for the sharded pipeline stages and artifacts().
  /// 0 = std::thread::hardware_concurrency(); 1 = the serial reference
  /// path (no pool is created). Results are bit-identical for every
  /// thread count — see docs/CONCURRENCY.md for the guarantee.
  unsigned threads = 0;
  /// Speech-interval detection thresholds (the paper's 60 dB / 20 % /
  /// 15 s rule); overridable for sensitivity studies.
  dsp::SpeechParams speech{};
  /// Walking classifier thresholds applied to the 1 Hz motion frames.
  dsp::WalkingParams walking{};
  /// Room-classifier parameters (dwell filter length, RSSI smoothing).
  locate::ClassifierParams classifier{};
  /// Metrics sink for the pipeline.* counters/histograms; null disables.
  /// Worker shards never touch the registry — only the serial fold loops
  /// between stages do, in slot-index order, so the snapshot stays
  /// bit-identical for every thread count (docs/CONCURRENCY.md).
  obs::Registry* metrics = nullptr;
  /// Causal tracer for the pipeline.* spans (one kPipelineRun trace per
  /// assembly, a stage span per barrier, a shard span per work item);
  /// null disables. Same rule as metrics: spans are emitted only from
  /// the serial code between the sharded stages, never inside a shard,
  /// so the dump is byte-identical for every thread count. With
  /// HS_OBS_PROFILE set, stages additionally record wall-clock profile
  /// scopes (kept out of the deterministic dump).
  obs::Tracer* tracer = nullptr;
};

class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(const Dataset& dataset, PipelineOptions options = {});

  // --- assembled per-astronaut data ---------------------------------------
  [[nodiscard]] const std::vector<locate::RoomStay>& track(std::size_t astronaut) const {
    return persons_[astronaut].track;
  }
  [[nodiscard]] std::vector<std::vector<locate::RoomStay>> tracks() const;
  [[nodiscard]] const std::vector<dsp::SpeechInterval>& speech_intervals(std::size_t astronaut) const {
    return persons_[astronaut].speech;
  }
  [[nodiscard]] const timesync::ClockFit* clock_fit(io::BadgeId badge) const;

  // --- Fig. 2: room-to-room passages ---------------------------------------
  [[nodiscard]] locate::TransitionMatrix fig2_transitions(double min_dwell_s = 10.0) const;

  // --- Fig. 3: position heatmap (28 cm cells, log scale when rendered) ----
  [[nodiscard]] locate::HeatmapAccumulator fig3_heatmap(std::size_t astronaut) const;

  // --- Fig. 4 / Fig. 6: per-day, per-astronaut series ----------------------
  struct DailySeries {
    int first_day = 2;
    /// values[d][i]: metric for astronaut i on day first_day + d;
    /// negative when the astronaut has no data that day.
    std::vector<std::array<double, crew::kCrewSize>> values;
  };
  [[nodiscard]] DailySeries fig4_walking() const;
  [[nodiscard]] DailySeries fig6_speech() const;

  // --- Fig. 5: location + speech timeline for one day ----------------------
  struct TimelineBin {
    double start_s = 0.0;
    habitat::RoomId room = habitat::RoomId::kNone;
    double speech_fraction = 0.0;
    double loudness_db = 0.0;
  };
  [[nodiscard]] std::vector<std::vector<TimelineBin>> fig5_timeline(int day,
                                                                    int bin_minutes = 10) const;

  // --- Table I ---------------------------------------------------------------
  struct Table1Row {
    char id = '?';
    bool has_social = true;  ///< false renders as "n/a" (astronaut C)
    double company = 0.0;
    double authority = 0.0;
    double talking = 0.0;
    double walking = 0.0;
  };
  [[nodiscard]] std::vector<Table1Row> table1() const;

  // --- Section V dataset statistics ----------------------------------------
  struct DatasetStats {
    double total_gib = 0.0;
    double worn_of_daytime = 0.0;    ///< paper: 63%
    double active_of_daytime = 0.0;  ///< paper: 84%
    std::vector<double> worn_by_day; ///< wear-compliance decline ~80% -> ~50%
    std::size_t total_records = 0;
  };
  [[nodiscard]] DatasetStats dataset_stats() const;

  // --- Section V dwell & pairwise findings ---------------------------------
  struct DwellStats {
    double typical_biolab_h = 0.0;    ///< paper: ~2.5 h
    double typical_office_h = 0.0;    ///< paper: ~2x the biolab stays
    double typical_workshop_h = 0.0;
  };
  [[nodiscard]] DwellStats dwell_stats() const;

  struct PairStats {
    double af_private_h = 0.0;  ///< paper: ~5 h more than D-E
    double de_private_h = 0.0;
    double af_meetings_h = 0.0; ///< paper: ~10 h more than D-E
    double de_meetings_h = 0.0;
  };
  [[nodiscard]] PairStats pair_stats() const;

  // --- survey cross-validation (paper: "we strove to verify every single
  // --- result we obtained with our sociometric technologies") --------------
  struct SurveyValidation {
    /// Pearson correlation of daily crew-mean wellbeing (survey) with
    /// daily crew-mean speech fraction (badges). Positive: the sensors
    /// and the self-reports tell the same story.
    double wellbeing_speech_corr = 0.0;
    /// Linear slope of reported comfort vs day — negative, mirroring the
    /// wear-compliance decline.
    double comfort_slope_per_day = 0.0;
    std::size_t responses = 0;
  };
  [[nodiscard]] SurveyValidation survey_validation() const;

  /// Voice census: each astronaut's dominant voice class as recovered
  /// from their badge's f0 stream (the paper's male/female distinction).
  [[nodiscard]] std::array<dsp::VoiceClass, crew::kCrewSize> voice_census() const;

  // --- all paper artifacts in one (parallel) shot ---------------------------
  /// Every figure/table the paper reports, derived concurrently when the
  /// pipeline has a pool (options.threads != 1): each field is an
  /// independent shard, and fig3 additionally shards per astronaut.
  struct Artifacts {
    locate::TransitionMatrix fig2;
    std::vector<locate::HeatmapAccumulator> fig3;  ///< one heatmap per astronaut
    DailySeries fig4;
    DailySeries fig6;
    std::vector<Table1Row> table1;
    DatasetStats dataset;
    DwellStats dwell;
    PairStats pairs;
    SurveyValidation survey;
  };
  [[nodiscard]] Artifacts artifacts() const;

  // --- data-quality / degradation report ------------------------------------
  /// Per-badge account of what the pipeline had to work around: records
  /// lost on the card, truncated transfers, clock-fit health, and the
  /// longest silent stretch inside a supposedly-active interval (motion
  /// frames are ~1 Hz whenever a badge is on, so an in-interval gap much
  /// longer than a second is missing data — a write fault or a dead cell).
  struct BadgeGapSummary {
    io::BadgeId id = 0;
    std::size_t records = 0;            ///< records that made it off the card
    std::size_t dropped_records = 0;    ///< lost to SD write faults
    std::size_t truncated_records = 0;  ///< lost to binlog tail truncation
    std::size_t sync_samples = 0;
    double fit_residual_ms = 0.0;       ///< clock-fit max residual
    bool fit_stepped = false;           ///< piecewise fit (step anomaly)
    double recorded_active_s = 0.0;     ///< seconds with motion frames
    double longest_gap_s = 0.0;         ///< worst in-interval silence
  };
  struct GapReport {
    std::vector<BadgeGapSummary> badges;
    std::size_t total_dropped = 0;
    std::size_t total_truncated = 0;
  };
  [[nodiscard]] GapReport gap_report() const;

  // --- meetings --------------------------------------------------------------
  [[nodiscard]] std::vector<sna::Meeting> meetings_on(int day) const;
  [[nodiscard]] sna::MeetingDynamics meeting_dynamics(const sna::Meeting& meeting) const;

  [[nodiscard]] const Dataset& dataset() const { return *dataset_; }
  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  /// Derived per-astronaut products; the records they come from live in
  /// cols_.
  struct Person {
    std::vector<locate::RoomStay> track;
    std::vector<dsp::SpeechInterval> speech;
  };

  void assemble();
  [[nodiscard]] sna::CompanyAnalysis company_analysis() const;
  /// Borrowed per-astronaut views over persons_ for the meeting stage —
  /// valid while the pipeline lives; handed out instead of copying the
  /// track/speech vectors.
  [[nodiscard]] std::vector<sna::TrackView> track_views() const;
  [[nodiscard]] std::vector<sna::SpeechView> speech_views() const;

  const Dataset* dataset_;
  PipelineOptions options_;
  /// This assembly's trace and root span (0 when options_.tracer is null
  /// or tracing is compiled out); artifacts() parents its stage to them.
  std::uint64_t trace_ = 0;
  std::uint64_t trace_root_ = 0;
  /// Shared worker pool for assemble() and artifacts(); null on the
  /// serial path (threads == 1). shared_ptr keeps the pipeline copyable.
  std::shared_ptr<util::ThreadPool> pool_;
  std::map<io::BadgeId, timesync::ClockFit> fits_;
  /// Worn/active intervals per badge on the rectified timeline.
  std::map<io::BadgeId, std::vector<std::pair<double, double>>> worn_;
  std::map<io::BadgeId, std::vector<std::pair<double, double>>> active_;
  std::array<Person, crew::kCrewSize> persons_;
  /// Per-astronaut attributed record columns, sorted by time after
  /// assemble(). Derived products (track, speech) land in persons_.
  std::array<PersonColumns, crew::kCrewSize> cols_;
};

}  // namespace hs::core
