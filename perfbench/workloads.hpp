// Workload definitions, output digests and result printing shared by the
// two benchmark executables:
//
//   perfbench_gate   the untraced end-to-end run (campaigns, the ICAres-1
//                    mission and the analysis sweep through their public
//                    entry points only);
//   perfbench_trace  the traced run, which wires the layer objects itself
//                    and times each layer's public calls.
//
// Everything an operation produces is folded into a 64-bit FNV-1a digest
// over exact bit patterns, so run.py can compare it with the digests
// recorded in perfbench/digests.json. The metrics catalog, the flight log
// and the trace dump are deliberately left out: their formats may change
// without the simulation changing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "fleet/fleet_runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- command line -----------------------------------------------------------

enum class Workload { kCalmFleet, kStormFleet, kIcaresReplay };

inline const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCalmFleet: return "calm-fleet";
    case Workload::kStormFleet: return "storm-fleet";
    case Workload::kIcaresReplay: return "icares-replay";
  }
  return "?";
}

struct Args {
  Workload workload = Workload::kCalmFleet;
  std::uint64_t seed = 42;
  double seconds = 30.0;
  /// Alter the first operation's result before it is digested (the
  /// self-test that a wrong result is reported as a failed operation).
  bool perturb = false;
  /// Traced run only: where to write the span dump.
  std::string spans;
};

[[noreturn]] inline void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload calm-fleet|storm-fleet|icares-replay --seed N "
               "--seconds S [--perturb] [--spans FILE]\n",
               prog);
  std::exit(2);
}

inline Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--perturb") {
      args.perturb = true;
    } else if (flag == "--workload" && has_value) {
      const std::string_view name = argv[++i];
      if (name == "calm-fleet") {
        args.workload = Workload::kCalmFleet;
      } else if (name == "storm-fleet") {
        args.workload = Workload::kStormFleet;
      } else if (name == "icares-replay") {
        args.workload = Workload::kIcaresReplay;
      } else {
        usage(argv[0]);
      }
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--spans" && has_value) {
      args.spans = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) usage(argv[0]);
  return args;
}

// --- workload sizes -----------------------------------------------------------
//
// The amount of work is a fixed function of --seconds, sized so that one
// run measures about that long on a 4-vCPU x86-64 host (gcc 12,
// RelWithDebInfo). Both sides of a comparison therefore do identical work.

/// Calm habitats: 2-day missions on the paper's 27-beacon deployment,
/// ~7.5 s each.
inline int calm_habitats(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 7.5)));
}

/// Storm habitats come in whole round-robin cycles of the two cascades,
/// so every run has the same mix; one cycle of 1-day missions takes ~3.3 s.
inline int storm_habitats(double seconds) {
  return 2 * std::max(1, static_cast<int>(std::lround(seconds / 3.3)));
}

/// The canonical 14-day ICAres-1 mission (~11 s) takes the first part of
/// a 30 s run; shorter runs replay a prefix of it.
inline int icares_days(double seconds) {
  return std::clamp(static_cast<int>(std::lround(seconds * 14.0 / 30.0)), 2, 14);
}

/// Sweep variants over the mission's dataset, ~1.2 s each on 14 days.
inline int icares_variants(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 12.0 / 30.0)));
}

/// Operations one run attempts: one per habitat on the fleets, the mission
/// and every sweep variant on icares-replay. Each executable prints this
/// first, so run.py can count them all as failed if the run dies.
inline int planned_ops(const Args& args) {
  switch (args.workload) {
    case Workload::kCalmFleet: return calm_habitats(args.seconds);
    case Workload::kStormFleet: return storm_habitats(args.seconds);
    case Workload::kIcaresReplay: return 1 + icares_variants(args.seconds);
  }
  return 1;
}

inline void print_planned(const Args& args) {
  std::printf("{\"planned\":%d}\n", planned_ops(args));
  std::fflush(stdout);
}

/// Runs `call`; an exception it throws becomes the returned problem
/// (empty when it returns normally).
template <typename F>
std::string caught(F&& call) {
  try {
    call();
    return "";
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// The campaign DSL text of a fleet workload. Habitat seeds are
/// fleet::habitat_seed(seed, index).
inline std::string campaign_text(Workload w, std::uint64_t seed, double seconds) {
  const std::string s = std::to_string(seed);
  if (w == Workload::kCalmFleet) {
    return "campaign calm-fleet\n"
           "habitats " + std::to_string(calm_habitats(seconds)) + "\n"
           "seed " + s + "\n"
           "days 2\n"
           "crew 6\n"
           "beacons 27\n"
           "faults none\n"
           "cascade none\n"
           "trace_sample 100\n"
           "mesh on\n"
           "replication 3\n";
  }
  // Sparse 9-beacon habitats (one node per room): a power-storm wave takes
  // down a third of the nodes and usually wipes a chunk's only replica
  // before gossip copies it, leaving a permanent sequence hole. The fault
  // presets are left out: every one of them starts on day 2 or later.
  return "campaign storm-fleet\n"
         "habitats " + std::to_string(storm_habitats(seconds)) + "\n"
         "seed " + s + "\n"
         "days 1\n"
         "crew 6\n"
         "beacons 9\n"
         "faults none\n"
         "cascade power-storm,generated\n"
         "trace_sample 10\n"
         "mesh on\n"
         "replication 3\n";
}

/// Per-habitat options of both fleet workloads: serial, analysis on.
inline hs::fleet::CampaignOptions campaign_options() {
  hs::fleet::CampaignOptions options;
  options.threads = 1;
  options.analyze = true;
  return options;
}

/// The ICAres-1 mission: the canonical script, mesh off, SD collection.
inline hs::core::MissionConfig icares_config(std::uint64_t seed) {
  hs::core::MissionConfig config;
  config.seed = hs::fleet::habitat_seed(seed, 0);
  return config;
}

struct SweepVariant {
  std::string name;
  hs::core::PipelineOptions options;
};

/// The analysis sweep: the paper's ablations (ownership correction, clock
/// rectification) and classifier, speech and walking threshold settings.
/// Every variant is serial. Runs longer than 30 s cycle through the list
/// again.
inline std::vector<SweepVariant> sweep_variants(double seconds) {
  std::vector<SweepVariant> table;
  auto add = [&table](std::string name, auto tweak) {
    hs::core::PipelineOptions options;
    options.threads = 1;
    tweak(options);
    table.push_back(SweepVariant{std::move(name), options});
  };
  using Opts = hs::core::PipelineOptions;
  add("paper", [](Opts&) {});
  add("naive-ownership", [](Opts& o) { o.corrected_ownership = false; });
  add("raw-clocks", [](Opts& o) { o.rectify_clocks = false; });
  add("naive-raw", [](Opts& o) {
    o.corrected_ownership = false;
    o.rectify_clocks = false;
  });
  add("carry-10s", [](Opts& o) { o.classifier.gap_carry_s = 10.0; });
  add("bin-2s", [](Opts& o) { o.classifier.bin_s = 2.0; });
  add("speech-55db", [](Opts& o) { o.speech.min_level_db = 55.0; });
  add("speech-65db", [](Opts& o) { o.speech.min_level_db = 65.0; });
  add("coverage-30", [](Opts& o) { o.speech.min_coverage = 0.30; });
  add("voiced-35", [](Opts& o) { o.speech.min_voiced_fraction = 0.35; });
  add("accel-3.0", [](Opts& o) { o.walking.min_accel_var = 3.0; });
  add("step-1.2hz", [](Opts& o) { o.walking.min_step_hz = 1.2; });
  const int n = icares_variants(seconds);
  std::vector<SweepVariant> out;
  for (int i = 0; i < n; ++i) {
    SweepVariant v = table[static_cast<std::size_t>(i) % table.size()];
    if (i >= static_cast<int>(table.size())) v.name += "#" + std::to_string(i);
    out.push_back(std::move(v));
  }
  return out;
}

// --- digests --------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every campaign report section except the metrics roll-up.
inline std::string report_digest(const hs::fleet::FleetReport& r) {
  Digest d;
  d.add(r.campaign);
  d.add(r.habitats);
  d.add(r.habitat_days);
  for (const auto count : r.alert_counts) d.add(count);
  d.add(r.alerts_total);
  d.add(r.records_written);
  d.add(r.records_analyzed);
  d.add(r.chunks_offloaded);
  d.add(r.chunks_acked);
  d.add(r.dark_badges);
  d.add(r.habitats_with_dark);
  for (const auto* dist : {&r.ack_latency, &r.offload_gap}) {
    d.add(dist->count);
    d.add(dist->p50);
    d.add(dist->p90);
    d.add(dist->p99);
    d.add(dist->max);
  }
  return d.hex();
}

/// Structural checks that hold for every seed (recorded digests cover
/// only the recorded seeds). Returns an empty string when all hold.
inline std::string check_report(const hs::fleet::FleetReport& r, int habitats, int days) {
  if (r.habitats != static_cast<std::size_t>(habitats)) return "habitat count";
  if (r.habitat_days != static_cast<std::uint64_t>(habitats) * static_cast<std::uint64_t>(days)) {
    return "habitat-days";
  }
  if (r.records_written == 0 || r.chunks_offloaded == 0) return "no records";
  if (r.records_analyzed == 0 || r.records_analyzed > r.records_written) return "records analyzed";
  if (r.chunks_acked > r.chunks_offloaded || r.ack_latency.count != r.chunks_acked) {
    return "chunk acks";
  }
  return "";
}

inline std::uint64_t counter_value(const hs::obs::MetricsSnapshot& snap, std::string_view name) {
  const hs::obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0 : e->count;
}

inline std::uint64_t dataset_records(const hs::core::Dataset& ds) {
  std::uint64_t n = 0;
  for (const auto& log : ds.logs) n += log.card.record_count();
  return n;
}

/// The dataset's record counts, per badge and stream.
inline std::string dataset_digest(const hs::core::Dataset& ds) {
  Digest d;
  d.add(ds.total_bytes);
  for (const auto& log : ds.logs) {
    const auto& c = log.card;
    d.add(static_cast<std::uint64_t>(log.id));
    for (const std::size_t n : {c.beacon_obs().size(), c.pings().size(), c.ir_contacts().size(),
                                c.motion().size(), c.audio().size(), c.env().size(),
                                c.wear().size(), c.sync().size(), c.dropped_records(),
                                c.truncated_records()}) {
      d.add(n);
    }
    d.add(c.bytes_written());
  }
  return d.hex();
}

/// Everything one sweep variant produces, gathered in the order the
/// digest folds it.
struct VariantOutput {
  hs::core::AnalysisPipeline::Artifacts artifacts;
  std::vector<std::vector<std::vector<hs::core::AnalysisPipeline::TimelineBin>>> timelines;
  std::vector<hs::sna::Meeting> meetings;
  std::vector<hs::sna::MeetingDynamics> dynamics;
  hs::core::AnalysisPipeline::GapReport gaps;
};

/// One sweep variant: a pipeline over the dataset and every artifact it
/// produces, through the public artifact methods.
inline VariantOutput run_variant(const hs::core::Dataset& dataset,
                                 const hs::core::PipelineOptions& options) {
  const hs::core::AnalysisPipeline pipeline(dataset, options);
  VariantOutput out;
  out.artifacts = pipeline.artifacts();
  for (int day = dataset.first_day(); day <= dataset.last_day(); ++day) {
    out.timelines.push_back(pipeline.fig5_timeline(day));
    for (const auto& meeting : pipeline.meetings_on(day)) {
      out.dynamics.push_back(pipeline.meeting_dynamics(meeting));
      out.meetings.push_back(meeting);
    }
  }
  out.gaps = pipeline.gap_report();
  return out;
}

inline void add_series(Digest& d, const hs::core::AnalysisPipeline::DailySeries& s) {
  d.add(s.first_day);
  for (const auto& day : s.values) {
    for (const double v : day) d.add(v);
  }
}

inline std::string variant_digest(const VariantOutput& out) {
  Digest d;
  const auto& a = out.artifacts;
  for (const auto& row : a.fig2.counts()) {
    for (const int c : row) d.add(c);
  }
  for (const auto& heat : a.fig3) {
    d.add(heat.total_seconds());
    for (const auto& row : heat.grid_rows()) {
      for (const double v : row) d.add(v);
    }
  }
  add_series(d, a.fig4);
  add_series(d, a.fig6);
  for (const auto& row : a.table1) {
    d.add(std::string_view(&row.id, 1));
    d.add(row.has_social);
    d.add(row.company);
    d.add(row.authority);
    d.add(row.talking);
    d.add(row.walking);
  }
  d.add(a.dataset.total_gib);
  d.add(a.dataset.worn_of_daytime);
  d.add(a.dataset.active_of_daytime);
  for (const double v : a.dataset.worn_by_day) d.add(v);
  d.add(a.dataset.total_records);
  d.add(a.dwell.typical_biolab_h);
  d.add(a.dwell.typical_office_h);
  d.add(a.dwell.typical_workshop_h);
  d.add(a.pairs.af_private_h);
  d.add(a.pairs.de_private_h);
  d.add(a.pairs.af_meetings_h);
  d.add(a.pairs.de_meetings_h);
  d.add(a.survey.wellbeing_speech_corr);
  d.add(a.survey.comfort_slope_per_day);
  d.add(a.survey.responses);
  for (const auto& day : out.timelines) {
    for (const auto& row : day) {
      for (const auto& bin : row) {
        d.add(bin.start_s);
        d.add(static_cast<int>(bin.room));
        d.add(bin.speech_fraction);
        d.add(bin.loudness_db);
      }
    }
  }
  for (std::size_t i = 0; i < out.meetings.size(); ++i) {
    const auto& m = out.meetings[i];
    d.add(static_cast<int>(m.room));
    d.add(m.start_s);
    d.add(m.end_s);
    for (const std::size_t p : m.participants) d.add(p);
    const auto& dyn = out.dynamics[i];
    d.add(dyn.speech_fraction);
    d.add(dyn.mean_loudness_db);
    for (const double share : dyn.talk_share) d.add(share);
  }
  for (const auto& b : out.gaps.badges) {
    d.add(static_cast<std::uint64_t>(b.id));
    d.add(b.records);
    d.add(b.dropped_records);
    d.add(b.truncated_records);
    d.add(b.sync_samples);
    d.add(b.fit_residual_ms);
    d.add(b.fit_stepped);
    d.add(b.recorded_active_s);
    d.add(b.longest_gap_s);
  }
  d.add(out.gaps.total_dropped);
  d.add(out.gaps.total_truncated);
  return d.hex();
}

inline std::string check_variant(const VariantOutput& out) {
  const auto& a = out.artifacts;
  if (a.fig2.total() <= 0) return "fig2 empty";
  if (a.fig3.size() != hs::crew::kCrewSize || a.table1.size() != hs::crew::kCrewSize) {
    return "per-astronaut artifacts";
  }
  if (a.dataset.total_records == 0 || out.gaps.badges.empty()) return "dataset stats";
  if (out.meetings.size() != out.dynamics.size()) return "meeting dynamics";
  return "";
}

// --- output ---------------------------------------------------------------------
//
// Each executable prints one JSON object as its last stdout line; run.py
// turns it into the benchmark's result line.

class JsonLine {
 public:
  JsonLine& field(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonLine& field(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonLine& field(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonLine& field(std::string_view key, const char* v) { return field(key, std::string_view(v)); }
  JsonLine& object(std::string_view key, const JsonLine& inner) { return raw(key, inner.str()); }
  JsonLine& array(std::string_view key, const std::vector<JsonLine>& items) {
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) s += ",";
      s += items[i].str();
    }
    return raw(key, s + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

/// One operation's outcome: how many operations it covers (a campaign
/// digest covers all its habitats), its digest, and the structural check.
/// Operation name of a campaign: its size, so digests recorded for one
/// run length never meet a campaign of another.
inline std::string campaign_op(const hs::fleet::CampaignSpec& spec) {
  return "campaign-" + std::to_string(spec.habitats) + "x" + std::to_string(spec.days.front()) +
         "d";
}

inline JsonLine op_line(std::string_view name, std::uint64_t count, const std::string& digest,
                        const std::string& problem) {
  JsonLine op;
  op.field("name", name).field("count", count).field("digest", digest).field("problem", problem);
  return op;
}

}  // namespace perfbench
