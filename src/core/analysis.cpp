#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace hs::core {
namespace {

/// Overlap of [a0,a1) with a set of sorted intervals.
double overlap_seconds(const std::vector<std::pair<double, double>>& intervals, double a0,
                       double a1) {
  double total = 0.0;
  for (const auto& [b0, b1] : intervals) {
    const double lo = std::max(a0, b0);
    const double hi = std::min(a1, b1);
    if (hi > lo) total += hi - lo;
    if (b0 >= a1) break;
  }
  return total;
}

/// Append the slice [run.begin, run.end) of a batch column.
template <typename T>
void append_run(std::vector<T>& dst, const std::vector<T>& src, const DayRun& run) {
  dst.insert(dst.end(), src.data() + run.begin, src.data() + run.end);
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(const Dataset& dataset, PipelineOptions options)
    : dataset_(&dataset), options_(options) {
  if (util::resolve_threads(options_.threads) > 1) {
    pool_ = std::make_shared<util::ThreadPool>(options_.threads);
  }
  assemble();
}

std::vector<std::vector<locate::RoomStay>> AnalysisPipeline::tracks() const {
  std::vector<std::vector<locate::RoomStay>> out;
  out.reserve(crew::kCrewSize);
  for (const auto& p : persons_) out.push_back(p.track);
  return out;
}

std::vector<sna::TrackView> AnalysisPipeline::track_views() const {
  std::vector<sna::TrackView> out;
  out.reserve(crew::kCrewSize);
  for (const auto& p : persons_) out.emplace_back(p.track);
  return out;
}

std::vector<sna::SpeechView> AnalysisPipeline::speech_views() const {
  std::vector<sna::SpeechView> out;
  out.reserve(crew::kCrewSize);
  for (const auto& p : persons_) out.emplace_back(p.speech);
  return out;
}

const timesync::ClockFit* AnalysisPipeline::clock_fit(io::BadgeId badge) const {
  auto it = fits_.find(badge);
  return it == fits_.end() ? nullptr : &it->second;
}

// Every stage below shards across an independent axis (badges, then
// astronauts) via util::parallel_for; each shard writes only its own
// pre-allocated slot and any cross-shard merge happens serially in a
// fixed order, so the result is bit-identical for every thread count
// (docs/CONCURRENCY.md states the full guarantee).
void AnalysisPipeline::assemble() {
  const auto& ownership =
      options_.corrected_ownership ? dataset_->ownership : dataset_->naive_ownership;
  const auto& logs = dataset_->logs;
  const std::size_t nlogs = logs.size();
  util::ThreadPool* pool = pool_.get();

  // Tracing mirrors the metric-fold rule: the run root and every stage /
  // shard span are emitted serially between the barriers. Spans carry no
  // sim time (the pipeline is offline) — start == end == 0; causality is
  // the parent chain. Stage indices: 0 rectify, 1 wear, 2 attribute,
  // 3 derive (artifacts() adds stage 4).
  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr) {
    trace_ = tracer->pipeline_trace(tracer->next_pipeline_run());
    trace_root_ = tracer->emit(trace_, obs::SpanKind::kPipelineRun, obs::Subsys::kPipeline, 0, 0,
                               0, static_cast<std::int64_t>(nlogs));
  }
  std::int64_t stage_index = 0;
  auto trace_stage = [&](std::size_t shards) {
    if (tracer == nullptr || trace_root_ == 0) {
      ++stage_index;
      return;
    }
    const obs::SpanId stage =
        tracer->emit(trace_, obs::SpanKind::kPipelineStage, obs::Subsys::kPipeline, 0, 0,
                     trace_root_, stage_index, static_cast<std::int64_t>(shards));
    for (std::size_t j = 0; j < shards; ++j) {
      tracer->emit(trace_, obs::SpanKind::kPipelineShard, obs::Subsys::kPipeline, 0, 0, stage,
                   stage_index, static_cast<std::int64_t>(j));
    }
    ++stage_index;
  };

  // Metric folds run serially between the sharded stages, never inside a
  // shard, so registration order and every count are thread-independent.
  obs::Counter* worn_metric = nullptr;
  obs::Counter* attributed_metric = nullptr;
  obs::Histogram* stays_hist = nullptr;
  obs::Histogram* speech_hist = nullptr;
  if (options_.metrics != nullptr) {
    worn_metric = &options_.metrics->counter("pipeline.worn_intervals");
    attributed_metric = &options_.metrics->counter("pipeline.records_attributed");
    stays_hist = &options_.metrics->histogram("pipeline.track_stays", {10, 50, 100, 500, 1000});
    speech_hist =
        &options_.metrics->histogram("pipeline.speech_intervals", {10, 50, 100, 500, 1000});
  }

  // 1. Clock rectification per badge — each least-squares fit depends only
  // on that badge's own sync samples. Map nodes are created serially up
  // front (badge ids are unique per Dataset); shards fill the values.
  std::vector<timesync::ClockFit*> fit_slot(nlogs);
  for (std::size_t i = 0; i < nlogs; ++i) fit_slot[i] = &fits_[logs[i].id];
  util::parallel_for(pool, nlogs, [&](std::size_t i) {
    const auto& log = logs[i];
    timesync::ClockFit fit;  // identity (rate 1, offset 0)
    if (options_.rectify_clocks) {
      timesync::OffsetEstimator est;
      est.add_samples(log.card.sync());
      if (auto fitted = est.fit(log.id)) fit = *fitted;
    }
    *fit_slot[i] = fit;
  });
  trace_stage(nlogs);

  // 2. Worn/active intervals per badge from its wear events.
  std::vector<std::vector<std::pair<double, double>>*> worn_slot(nlogs);
  std::vector<std::vector<std::pair<double, double>>*> active_slot(nlogs);
  for (std::size_t i = 0; i < nlogs; ++i) {
    worn_slot[i] = &worn_[logs[i].id];
    active_slot[i] = &active_[logs[i].id];
  }
  util::parallel_for(pool, nlogs, [&](std::size_t i) {
    const auto& log = logs[i];
    const auto& fit = *fit_slot[i];
    auto& worn = *worn_slot[i];
    auto& active = *active_slot[i];
    constexpr double kNotOpen = -1.0;
    double worn_since = kNotOpen;
    double active_since = kNotOpen;
    for (const auto& ev : log.card.wear()) {
      const double t = fit.rectify(ev.t) / 1000.0;
      const bool is_worn = ev.state == io::WearState::kWorn;
      const bool is_active = ev.state != io::WearState::kOff;
      if (is_worn && worn_since == kNotOpen) worn_since = t;
      if (!is_worn && worn_since != kNotOpen) {
        worn.emplace_back(worn_since, t);
        worn_since = kNotOpen;
      }
      if (is_active && active_since == kNotOpen) active_since = t;
      if (!is_active && active_since != kNotOpen) {
        active.emplace_back(active_since, t);
        active_since = kNotOpen;
      }
    }
    const double mission_end = static_cast<double>(day_start(dataset_->last_day() + 1)) / 1e6;
    if (worn_since != kNotOpen) worn.emplace_back(worn_since, mission_end);
    if (active_since != kNotOpen) active.emplace_back(active_since, mission_end);
  });
  trace_stage(nlogs);
  if (worn_metric) {
    for (std::size_t i = 0; i < nlogs; ++i) worn_metric->inc(worn_slot[i]->size());
  }

  // 3. Attribute records to astronauts (worn periods only). Several badges
  // can feed one astronaut (the day-9 swap, F reusing C's badge). Each
  // badge shard builds a RecordBatch (rectified + worn-filtered columns;
  // the batch owns its vectors and belongs to that one shard — the
  // docs/CONCURRENCY.md batch-ownership rule). The merge then walks the
  // batches serially in log order, resolves ownership once per badge-day
  // run, and appends the kept column slices into cols_, so the append
  // order is the same for every thread count.
  std::vector<RecordBatch> batches(nlogs);
  util::parallel_for(pool, nlogs, [&](std::size_t i) {
    batches[i] = RecordBatch::build(logs[i].id, logs[i].card, *fit_slot[i], *worn_slot[i]);
  });
  trace_stage(nlogs);
  for (std::size_t i = 0; i < nlogs; ++i) {
    const RecordBatch& batch = batches[i];
    const PersonColumns& bc = batch.cols;
    std::array<std::uint64_t, crew::kCrewSize> attributed{};
    for (const DayRun& run : batch.obs_days) {
      if (const auto who = ownership.owner(batch.badge, run.day)) {
        PersonColumns& pc = cols_[*who];
        append_run(pc.obs_t, bc.obs_t, run);
        append_run(pc.obs_beacon, bc.obs_beacon, run);
        append_run(pc.obs_rssi, bc.obs_rssi, run);
        attributed[*who] += run.end - run.begin;
      }
    }
    for (const DayRun& run : batch.audio_days) {
      if (const auto who = ownership.owner(batch.badge, run.day)) {
        PersonColumns& pc = cols_[*who];
        append_run(pc.audio_t, bc.audio_t, run);
        append_run(pc.audio_level_db, bc.audio_level_db, run);
        append_run(pc.audio_voiced, bc.audio_voiced, run);
        append_run(pc.audio_f0, bc.audio_f0, run);
        attributed[*who] += run.end - run.begin;
      }
    }
    for (const DayRun& run : batch.motion_days) {
      if (const auto who = ownership.owner(batch.badge, run.day)) {
        PersonColumns& pc = cols_[*who];
        append_run(pc.motion_t, bc.motion_t, run);
        append_run(pc.motion_accel_var, bc.motion_accel_var, run);
        append_run(pc.motion_step_hz, bc.motion_step_hz, run);
        attributed[*who] += run.end - run.begin;
      }
    }
    if (attributed_metric) {
      for (std::size_t who = 0; who < crew::kCrewSize; ++who) {
        attributed_metric->inc(attributed[who]);
      }
    }
  }

  // 4. Sort (multiple badges can contribute to one astronaut) and derive —
  // independent per astronaut; classifier and detector are shared const.
  // core::sort_columns fixes the tie order of same-timestamp beacon
  // observations, which decides every track (see its doc comment).
  const locate::RoomClassifier classifier(dataset_->beacons, options_.classifier);
  const dsp::SpeechDetector speech(options_.speech);
  util::parallel_for(pool, crew::kCrewSize, [&](std::size_t i) {
    auto& p = persons_[i];
    PersonColumns& pc = cols_[i];
    sort_columns(pc);
    p.track = classifier.classify(pc.obs_t.data(), pc.obs_beacon.data(), pc.obs_rssi.data(),
                                  pc.obs_t.size());
    p.speech = speech.analyze(pc.audio_t.data(), pc.audio_level_db.data(),
                              pc.audio_voiced.data(), pc.audio_f0.data(), pc.audio_t.size(),
                              0.0);
  });
  trace_stage(crew::kCrewSize);
  if (stays_hist || speech_hist) {
    for (const auto& p : persons_) {
      if (stays_hist) stays_hist->observe(static_cast<double>(p.track.size()));
      if (speech_hist) speech_hist->observe(static_cast<double>(p.speech.size()));
    }
  }
}

locate::TransitionMatrix AnalysisPipeline::fig2_transitions(double min_dwell_s) const {
  locate::TransitionMatrix matrix;
  for (const auto& p : persons_) matrix.add_track(p.track, min_dwell_s);
  return matrix;
}

locate::HeatmapAccumulator AnalysisPipeline::fig3_heatmap(std::size_t astronaut) const {
  const locate::Triangulator tri(dataset_->habitat, dataset_->beacons);
  locate::HeatmapAccumulator heat(dataset_->habitat);
  // Triangulate straight off the sorted columns — no row materialization.
  const PersonColumns& pc = cols_[astronaut];
  heat.add_fixes(tri.fixes(pc.obs_t.data(), pc.obs_beacon.data(), pc.obs_rssi.data(),
                           pc.obs_t.size(), persons_[astronaut].track));
  return heat;
}

AnalysisPipeline::DailySeries AnalysisPipeline::fig4_walking() const {
  const dsp::WalkingDetector detector(options_.walking);
  DailySeries series;
  series.first_day = dataset_->first_day();
  const int days = dataset_->last_day() - dataset_->first_day() + 1;
  series.values.assign(static_cast<std::size_t>(days), {});
  for (auto& row : series.values) row.fill(-1.0);

  // Each astronaut owns column i of every row — disjoint writes, so the
  // crew axis shards freely.
  util::parallel_for(pool_.get(), crew::kCrewSize, [&](std::size_t i) {
    // The sorted motion columns split into maximal same-day runs, one
    // predicate count per run. Runs past the instrumented window stop
    // processing; runs before it or shorter than 10 minutes yield no
    // estimate.
    const PersonColumns& pc = cols_[i];
    for (const DayRun& run : day_runs(pc.motion_t.data(), pc.motion_t.size())) {
      if (run.day > dataset_->last_day()) break;
      const std::size_t total = run.end - run.begin;
      if (run.day < series.first_day || total < 600) continue;
      const std::size_t walking = detector.count_walking(
          pc.motion_step_hz.data() + run.begin, pc.motion_accel_var.data() + run.begin, total);
      series.values[static_cast<std::size_t>(run.day - series.first_day)][i] =
          static_cast<double>(walking) / static_cast<double>(total);
    }
  });
  return series;
}

AnalysisPipeline::DailySeries AnalysisPipeline::fig6_speech() const {
  DailySeries series;
  series.first_day = dataset_->first_day();
  const int days = dataset_->last_day() - dataset_->first_day() + 1;
  series.values.assign(static_cast<std::size_t>(days), {});
  for (auto& row : series.values) row.fill(-1.0);

  util::parallel_for(pool_.get(), crew::kCrewSize, [&](std::size_t i) {
    std::size_t speech = 0;
    std::size_t total = 0;
    int cur_day = -1;
    auto flush = [&]() {
      if (cur_day < series.first_day || total < 40) return;  // <10 min of intervals
      series.values[static_cast<std::size_t>(cur_day - series.first_day)][i] =
          static_cast<double>(speech) / static_cast<double>(total);
    };
    for (const auto& iv : persons_[i].speech) {
      const int day = mission_day(static_cast<SimTime>(iv.start_s * 1e6));
      if (day != cur_day) {
        flush();
        cur_day = day;
        speech = 0;
        total = 0;
      }
      if (day > dataset_->last_day()) break;
      ++total;
      if (iv.speech) ++speech;
    }
    flush();
  });
  return series;
}

std::vector<std::vector<AnalysisPipeline::TimelineBin>> AnalysisPipeline::fig5_timeline(
    int day, int bin_minutes) const {
  const double t0 = static_cast<double>(day_start(day)) / 1e6 + 8.0 * 3600.0;
  const double t1 = static_cast<double>(day_start(day)) / 1e6 + 22.0 * 3600.0;
  const double bin_s = bin_minutes * 60.0;
  const auto bins = static_cast<std::size_t>((t1 - t0) / bin_s);

  std::vector<std::vector<TimelineBin>> out(crew::kCrewSize);
  util::parallel_for(pool_.get(), crew::kCrewSize, [&](std::size_t i) {
    out[i].resize(bins);
    for (std::size_t b = 0; b < bins; ++b) {
      TimelineBin& bin = out[i][b];
      bin.start_s = t0 + static_cast<double>(b) * bin_s;
      // Room: sample the track each minute; majority wins.
      std::array<int, habitat::kRoomCount> votes{};
      int best = 0;
      for (double t = bin.start_s; t < bin.start_s + bin_s; t += 60.0) {
        const auto room = locate::room_at_time(persons_[i].track, t);
        if (room == habitat::RoomId::kNone) continue;
        const int v = ++votes[habitat::room_index(room)];
        if (v > best) {
          best = v;
          bin.room = room;
        }
      }
      // Speech within the bin: intervals are sorted by start_s, so the
      // bin's first one is found by binary search.
      const auto& intervals = persons_[i].speech;
      std::size_t total = 0;
      std::size_t speech = 0;
      double loud = 0.0;
      std::size_t loud_n = 0;
      const auto first = std::lower_bound(
          intervals.begin(), intervals.end(), bin.start_s,
          [](const dsp::SpeechInterval& iv, double t) { return iv.start_s < t; });
      for (auto it = first; it != intervals.end(); ++it) {
        const auto& iv = *it;
        if (iv.start_s >= bin.start_s + bin_s) break;
        ++total;
        if (iv.speech) {
          ++speech;
          loud += iv.mean_voiced_db;
          ++loud_n;
        }
      }
      bin.speech_fraction = total > 0 ? static_cast<double>(speech) / total : 0.0;
      bin.loudness_db = loud_n > 0 ? loud / loud_n : 0.0;
    }
  });
  return out;
}

sna::CompanyAnalysis AnalysisPipeline::company_analysis() const {
  sna::CompanyAnalysis company(crew::kCrewSize);
  const auto all_tracks = tracks();
  for (int day = dataset_->first_day(); day <= dataset_->last_day(); ++day) {
    const double d0 = static_cast<double>(day_start(day)) / 1e6;
    company.accumulate(all_tracks, d0 + 8 * 3600.0, d0 + 22 * 3600.0);
  }
  return company;
}

std::vector<AnalysisPipeline::Table1Row> AnalysisPipeline::table1() const {
  const auto company = company_analysis();
  const auto scores = sna::hits(company.pair_matrix());
  const dsp::WalkingDetector detector(options_.walking);

  std::vector<Table1Row> rows(crew::kCrewSize);

  // Raw metrics first.
  std::array<double, crew::kCrewSize> company_raw{};
  std::array<double, crew::kCrewSize> talking_raw{};
  std::array<double, crew::kCrewSize> walking_raw{};
  double max_covered = 0.0;
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    company_raw[i] = company.company_seconds(i);
    max_covered = std::max(max_covered, company.covered_seconds(i));
    // Talking: fraction of recorded 15 s intervals with detected speech.
    std::size_t speech = 0;
    for (const auto& iv : persons_[i].speech) speech += iv.speech ? 1 : 0;
    talking_raw[i] = persons_[i].speech.empty()
                         ? 0.0
                         : static_cast<double>(speech) / persons_[i].speech.size();
    // Walking: fraction of recorded motion frames classified as walking.
    const PersonColumns& pc = cols_[i];
    const std::size_t walk = detector.count_walking(pc.motion_step_hz.data(),
                                                    pc.motion_accel_var.data(), pc.motion_t.size());
    walking_raw[i] = pc.motion_t.empty()
                         ? 0.0
                         : static_cast<double>(walk) / static_cast<double>(pc.motion_t.size());
  }

  // Company is a *rate*: normalize by coverage before scaling (C is aboard
  // for only 2.5 instrumented days). The paper reports C's social scores
  // as n/a; we do the same when coverage is under 30% of the maximum.
  std::array<double, crew::kCrewSize> company_rate{};
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    const double covered = company.covered_seconds(i);
    company_rate[i] = covered > 0.0 ? company_raw[i] / covered : 0.0;
  }

  std::array<bool, crew::kCrewSize> has_social{};
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    has_social[i] = company.covered_seconds(i) >= 0.3 * max_covered;
  }

  // Social scores of a crew member with marginal coverage (C) are reported
  // n/a and excluded from the normalization; talking/walking are rates, so
  // C stays in (the paper's Table I shows C at 1.00 for both).
  auto norm = [&](std::array<double, crew::kCrewSize>& xs, bool social_only) {
    double m = 0.0;
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      if (!social_only || has_social[i]) m = std::max(m, xs[i]);
    }
    if (m > 0.0) {
      for (double& x : xs) x /= m;
    }
  };

  std::array<double, crew::kCrewSize> authority{};
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) authority[i] = scores.authority[i];

  norm(company_rate, true);
  norm(talking_raw, false);
  norm(walking_raw, false);
  norm(authority, true);

  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    rows[i].id = crew::astronaut_letter(i);
    rows[i].has_social = has_social[i];
    // Social scores of marginal-coverage members are n/a: zeroed so no
    // consumer mistakes them for comparable values.
    rows[i].company = has_social[i] ? company_rate[i] : 0.0;
    rows[i].authority = has_social[i] ? authority[i] : 0.0;
    rows[i].talking = talking_raw[i];
    rows[i].walking = walking_raw[i];
  }
  return rows;
}

AnalysisPipeline::DatasetStats AnalysisPipeline::dataset_stats() const {
  DatasetStats stats;
  stats.total_gib = to_gib(dataset_->total_bytes);
  for (const auto& log : dataset_->logs) stats.total_records += log.card.record_count();

  const auto& ownership =
      options_.corrected_ownership ? dataset_->ownership : dataset_->naive_ownership;

  double worn_sum = 0.0;
  double active_sum = 0.0;
  double daytime_sum = 0.0;
  const int days = dataset_->last_day() - dataset_->first_day() + 1;
  std::vector<double> worn_day_sum(static_cast<std::size_t>(days), 0.0);
  std::vector<double> worn_day_den(static_cast<std::size_t>(days), 0.0);

  for (const auto& log : dataset_->logs) {
    auto wit = worn_.find(log.id);
    auto ait = active_.find(log.id);
    if (wit == worn_.end()) continue;
    for (int day = dataset_->first_day(); day <= dataset_->last_day(); ++day) {
      if (!ownership.owner(log.id, day)) continue;  // unowned badge-days don't count
      const double d0 = static_cast<double>(day_start(day)) / 1e6;
      const double daytime0 = d0 + 8 * 3600.0;
      const double daytime1 = d0 + 22 * 3600.0;
      const double worn = overlap_seconds(wit->second, daytime0, daytime1);
      const double active =
          ait != active_.end() ? overlap_seconds(ait->second, daytime0, daytime1) : 0.0;
      worn_sum += worn;
      active_sum += active;
      daytime_sum += daytime1 - daytime0;
      const auto di = static_cast<std::size_t>(day - dataset_->first_day());
      worn_day_sum[di] += worn;
      worn_day_den[di] += daytime1 - daytime0;
    }
  }
  stats.worn_of_daytime = daytime_sum > 0.0 ? worn_sum / daytime_sum : 0.0;
  stats.active_of_daytime = daytime_sum > 0.0 ? active_sum / daytime_sum : 0.0;
  stats.worn_by_day.resize(static_cast<std::size_t>(days));
  for (std::size_t d = 0; d < stats.worn_by_day.size(); ++d) {
    stats.worn_by_day[d] = worn_day_den[d] > 0.0 ? worn_day_sum[d] / worn_day_den[d] : 0.0;
  }
  return stats;
}

AnalysisPipeline::DwellStats AnalysisPipeline::dwell_stats() const {
  // "Stays" are work sessions: visits to the same room separated by less
  // than ~25 min (a hydration run, a supervision drop-in, a restroom
  // break) belong to one stay. The typical stay is the time-weighted mean
  // session length — "how long is the stay an astronaut is in the middle
  // of", which matches the paper's "tended to stay ... about 2.5 h".
  constexpr double kSessionGapS = 25.0 * 60.0;
  std::vector<double> biolab;
  std::vector<double> office;
  std::vector<double> workshop;
  auto collect = [&](const std::vector<locate::RoomStay>& track, habitat::RoomId room,
                     std::vector<double>& out) {
    double start = -1.0;
    double end = -1.0;
    for (const auto& s : track) {
      if (s.room != room) continue;
      if (start >= 0.0 && s.start_s - end < kSessionGapS) {
        end = s.end_s;
      } else {
        if (start >= 0.0 && end - start >= 1800.0) out.push_back((end - start) / 3600.0);
        start = s.start_s;
        end = s.end_s;
      }
    }
    if (start >= 0.0 && end - start >= 1800.0) out.push_back((end - start) / 3600.0);
  };
  for (const auto& p : persons_) {
    const auto filtered = locate::filter_short_stays(p.track, 10.0);
    collect(filtered, habitat::RoomId::kBiolab, biolab);
    collect(filtered, habitat::RoomId::kOffice, office);
    collect(filtered, habitat::RoomId::kWorkshop, workshop);
  }
  auto time_weighted_mean = [](const std::vector<double>& xs) {
    double num = 0.0;
    double den = 0.0;
    for (double x : xs) {
      num += x * x;
      den += x;
    }
    return den > 0.0 ? num / den : 0.0;
  };
  DwellStats stats;
  stats.typical_biolab_h = time_weighted_mean(biolab);
  stats.typical_office_h = time_weighted_mean(office);
  stats.typical_workshop_h = time_weighted_mean(workshop);
  return stats;
}

AnalysisPipeline::PairStats AnalysisPipeline::pair_stats() const {
  // "Talked privately" requires an actual conversation, not mere
  // co-working in the same room: meetings are speech-gated and private
  // time is weighted by the conversation's speech coverage.
  PairStats stats;
  // The meeting stage borrows views of the tracks and speech intervals
  // already sitting in persons_ (no copies — the no-rematerialization
  // rule, docs/PERFORMANCE.md "Artifact layer").
  const auto track_v = track_views();
  const auto speech_v = speech_views();

  // Meeting detection is independent per mission day, so the day axis
  // shards: each day accumulates a private partial, and the partials fold
  // serially in day order — the same fold on every thread count, keeping
  // the floating-point sums bit-identical (docs/CONCURRENCY.md).
  const int first = dataset_->first_day();
  const auto days = static_cast<std::size_t>(dataset_->last_day() - first + 1);
  std::vector<PairStats> daily(days);
  util::parallel_for(pool_.get(), days, [&](std::size_t d) {
    PairStats& ps = daily[d];
    const double d0 = static_cast<double>(day_start(first + static_cast<int>(d))) / 1e6;
    const auto meetings = sna::detect_meetings(std::span<const sna::TrackView>(track_v),
                                               d0 + 8 * 3600.0, d0 + 22 * 3600.0);
    for (const auto& m : meetings) {
      const auto dyn = sna::analyze_meeting(m, std::span<const sna::SpeechView>(speech_v));
      if (dyn.speech_fraction < 0.15) continue;  // silent co-presence, not a meeting
      const double hours = m.duration_s() / 3600.0;
      // Private tete-a-tetes shorter than ~6 min are mostly artifacts of
      // staggered arrivals at group gatherings (two badges visible before
      // the rest of the crew shows up).
      const bool real_private = m.is_private() && m.duration_s() >= 360.0;
      if (m.involves(0) && m.involves(5)) {
        ps.af_meetings_h += hours;
        if (real_private) ps.af_private_h += hours * dyn.speech_fraction;
      }
      if (m.involves(3) && m.involves(4)) {
        ps.de_meetings_h += hours;
        if (real_private) ps.de_private_h += hours * dyn.speech_fraction;
      }
    }
  });
  for (const auto& ps : daily) {
    stats.af_private_h += ps.af_private_h;
    stats.de_private_h += ps.de_private_h;
    stats.af_meetings_h += ps.af_meetings_h;
    stats.de_meetings_h += ps.de_meetings_h;
  }
  return stats;
}

AnalysisPipeline::SurveyValidation AnalysisPipeline::survey_validation() const {
  SurveyValidation v;
  v.responses = dataset_->surveys.size();
  if (dataset_->surveys.empty()) return v;

  // Daily crew means of the survey wellbeing and comfort scales.
  const int first = dataset_->first_day();
  const int last = dataset_->last_day();
  std::vector<double> wellbeing(static_cast<std::size_t>(last - first + 1), 0.0);
  std::vector<double> comfort(wellbeing.size(), 0.0);
  std::vector<int> counts(wellbeing.size(), 0);
  for (const auto& s : dataset_->surveys) {
    if (s.day < first || s.day > last) continue;
    const auto d = static_cast<std::size_t>(s.day - first);
    wellbeing[d] += s.wellbeing;
    comfort[d] += s.comfort;
    ++counts[d];
  }
  const auto speech = fig6_speech();
  std::vector<double> survey_series;
  std::vector<double> speech_series;
  std::vector<double> comfort_series;
  std::vector<double> day_series;
  for (std::size_t d = 0; d < wellbeing.size(); ++d) {
    if (counts[d] == 0) continue;
    double speech_sum = 0.0;
    int speech_n = 0;
    for (double val : speech.values[d]) {
      if (val >= 0) {
        speech_sum += val;
        ++speech_n;
      }
    }
    if (speech_n == 0) continue;
    survey_series.push_back(wellbeing[d] / counts[d]);
    speech_series.push_back(speech_sum / speech_n);
    comfort_series.push_back(comfort[d] / counts[d]);
    day_series.push_back(static_cast<double>(first) + static_cast<double>(d));
  }
  v.wellbeing_speech_corr = pearson(survey_series, speech_series);
  v.comfort_slope_per_day = linear_fit(day_series, comfort_series).slope;
  return v;
}

std::array<dsp::VoiceClass, crew::kCrewSize> AnalysisPipeline::voice_census() const {
  std::array<dsp::VoiceClass, crew::kCrewSize> census{};
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    census[i] = dsp::dominant_voice_class(persons_[i].speech);
  }
  return census;
}

AnalysisPipeline::Artifacts AnalysisPipeline::artifacts() const {
  Artifacts out;
  out.fig3.reserve(crew::kCrewSize);
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) out.fig3.emplace_back(dataset_->habitat);

  // One shard per paper artifact; fig3 additionally shards per astronaut
  // (triangulation dominates the cost). Every shard writes only its own
  // field, and each derivation is already deterministic, so running them
  // concurrently cannot change any value.
  std::vector<std::function<void()>> shards;
  shards.emplace_back([&] { out.fig2 = fig2_transitions(); });
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    shards.emplace_back([&, i] { out.fig3[i] = fig3_heatmap(i); });
  }
  shards.emplace_back([&] { out.fig4 = fig4_walking(); });
  shards.emplace_back([&] { out.fig6 = fig6_speech(); });
  shards.emplace_back([&] { out.table1 = table1(); });
  shards.emplace_back([&] { out.dataset = dataset_stats(); });
  shards.emplace_back([&] { out.dwell = dwell_stats(); });
  shards.emplace_back([&] { out.pairs = pair_stats(); });
  shards.emplace_back([&] { out.survey = survey_validation(); });
  util::parallel_for(pool_.get(), shards.size(), [&](std::size_t i) { shards[i](); });
  // Stage 4 of the assembly trace (emitted serially after the barrier,
  // like the assemble() stages). Repeated artifacts() calls append
  // further stage-4 spans to the same run trace.
  if (options_.tracer != nullptr && trace_root_ != 0) {
    obs::Tracer& tracer = *options_.tracer;
    const obs::SpanId stage =
        tracer.emit(trace_, obs::SpanKind::kPipelineStage, obs::Subsys::kPipeline, 0, 0,
                    trace_root_, 4, static_cast<std::int64_t>(shards.size()));
    for (std::size_t j = 0; j < shards.size(); ++j) {
      tracer.emit(trace_, obs::SpanKind::kPipelineShard, obs::Subsys::kPipeline, 0, 0, stage, 4,
                  static_cast<std::int64_t>(j));
    }
  }
  return out;
}

AnalysisPipeline::GapReport AnalysisPipeline::gap_report() const {
  GapReport report;
  for (const auto& log : dataset_->logs) {
    BadgeGapSummary s;
    s.id = log.id;
    s.records = log.card.record_count();
    s.dropped_records = log.card.dropped_records();
    s.truncated_records = log.card.truncated_records();
    s.sync_samples = log.card.sync().size();

    timesync::ClockFit fit;  // identity when the badge never got a fit
    if (const auto it = fits_.find(log.id); it != fits_.end()) {
      fit = it->second;
      s.fit_residual_ms = fit.max_residual_ms;
      s.fit_stepped = fit.stepped();
    }
    s.recorded_active_s = static_cast<double>(log.card.motion().size());

    // Longest silence inside one active interval. Gaps that span interval
    // boundaries (the badge docked overnight) are expected and don't
    // count; a gap inside an interval is data that never got written.
    if (const auto it = active_.find(log.id); it != active_.end() && !it->second.empty()) {
      const auto& intervals = it->second;
      std::size_t iv = 0;
      double prev = -1.0;
      for (const auto& m : log.card.motion()) {
        const double t = fit.rectify(m.t) / 1000.0;
        while (iv < intervals.size() && intervals[iv].second <= t) {
          ++iv;
          prev = -1.0;
        }
        if (iv >= intervals.size()) break;
        if (t < intervals[iv].first) continue;
        if (prev >= 0.0) s.longest_gap_s = std::max(s.longest_gap_s, t - prev);
        prev = t;
      }
    }

    report.total_dropped += s.dropped_records;
    report.total_truncated += s.truncated_records;
    report.badges.push_back(s);
  }
  return report;
}

std::vector<sna::Meeting> AnalysisPipeline::meetings_on(int day) const {
  const double d0 = static_cast<double>(day_start(day)) / 1e6;
  const auto views = track_views();
  return sna::detect_meetings(std::span<const sna::TrackView>(views), d0 + 8 * 3600.0,
                              d0 + 22 * 3600.0);
}

sna::MeetingDynamics AnalysisPipeline::meeting_dynamics(const sna::Meeting& meeting) const {
  const auto views = speech_views();
  return sna::analyze_meeting(meeting, std::span<const sna::SpeechView>(views));
}

}  // namespace hs::core
